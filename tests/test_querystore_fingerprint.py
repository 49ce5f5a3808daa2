"""Fingerprint semantics: what must collide, what must never collide.

The query store keys everything on ``fingerprint(text)`` — a hash of the
literal-stripped token stream.  Two properties carry the feature:

* **Equivalence** — the same statement shape with different literals,
  whitespace, casing, or IN-list arity maps to one fingerprint, so
  repeated parameterized workloads aggregate into one profile.
* **Separation** — distinct shapes never share a fingerprint across the
  corpora we actually run (TPC-H SQL twins, DMV queries), so profiles
  never mix unrelated plans.

Plus the determinism contract: same seed, same workload -> byte-identical
``sys.dm_exec_*`` views and JSONL exports.
"""

import json

import pytest

from repro import PolarisConfig, Warehouse
from repro.sql.runner import SqlSession
from repro.telemetry.introspection import Introspector
from repro.telemetry.querystore import (
    HASH_LENGTH,
    fingerprint,
    normalize_sql,
    plan_fingerprint,
)
from repro.workloads.tpch import TPCH_SQL_QUERIES


class TestEquivalence:
    """Shapes that must map to the same fingerprint."""

    def test_number_literals_collapse(self):
        assert fingerprint("SELECT a FROM t WHERE b > 10") == fingerprint(
            "SELECT a FROM t WHERE b > 999"
        )

    def test_string_literals_collapse(self):
        assert fingerprint(
            "SELECT a FROM t WHERE c = 'BUILDING'"
        ) == fingerprint("SELECT a FROM t WHERE c = 'AUTOMOBILE'")

    def test_float_and_integer_literals_collapse(self):
        assert fingerprint("SELECT a FROM t WHERE b < 0.05") == fingerprint(
            "SELECT a FROM t WHERE b < 24"
        )

    def test_whitespace_is_insignificant(self):
        assert fingerprint(
            "SELECT a,\n       b\nFROM t\nWHERE c = 1"
        ) == fingerprint("select a, b from t where c = 1")

    def test_keyword_and_identifier_case_folds(self):
        assert fingerprint("SELECT A FROM T WHERE B = 'x'") == fingerprint(
            "select a from t where b = 'X'"
        )

    def test_in_list_arity_collapses(self):
        two = fingerprint("SELECT a FROM t WHERE m IN ('MAIL', 'SHIP')")
        four = fingerprint(
            "SELECT a FROM t WHERE m IN ('MAIL', 'SHIP', 'AIR', 'RAIL')"
        )
        one = fingerprint("SELECT a FROM t WHERE m IN ('MAIL')")
        assert two == four == one

    def test_values_row_count_collapses(self):
        short = fingerprint("INSERT INTO t VALUES (1, 'a')")
        long = fingerprint("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        assert short == long

    def test_normalized_text_is_parameterized(self):
        normalized = normalize_sql(
            "SELECT a FROM t WHERE m IN ('MAIL', 'SHIP') AND b > 10"
        )
        assert "'MAIL'" not in normalized
        assert "10" not in normalized
        assert "?" in normalized

    def test_date_literals_collapse(self):
        assert fingerprint(
            "SELECT a FROM t WHERE d < DATE '1995-03-15'"
        ) == fingerprint("SELECT a FROM t WHERE d < DATE '1998-09-02'")


class TestSeparation:
    """Shapes that must never share a fingerprint."""

    def test_different_tables_differ(self):
        assert fingerprint("SELECT a FROM t") != fingerprint("SELECT a FROM u")

    def test_different_columns_differ(self):
        assert fingerprint("SELECT a FROM t") != fingerprint("SELECT b FROM t")

    def test_different_operators_differ(self):
        assert fingerprint("SELECT a FROM t WHERE b > 1") != fingerprint(
            "SELECT a FROM t WHERE b < 1"
        )

    def test_statement_kinds_differ(self):
        assert fingerprint("SELECT a FROM t WHERE b = 1") != fingerprint(
            "DELETE FROM t WHERE b = 1"
        )

    def test_hash_shape(self):
        value = fingerprint("SELECT a FROM t")
        assert len(value) == HASH_LENGTH
        assert set(value) <= set("0123456789abcdef")

    def test_corpus_has_no_collisions(self):
        """TPC-H twins + one SELECT * per DMV: all pairwise distinct."""
        corpus = dict(TPCH_SQL_QUERIES)
        for view in sorted(Introspector.VIEWS):
            corpus[view] = f"SELECT * FROM {view}"
        hashes = {name: fingerprint(text) for name, text in corpus.items()}
        assert len(set(hashes.values())) == len(hashes), hashes

    def test_plan_fingerprint_strips_literals_only(self):
        base = plan_fingerprint("Filter l_shipdate <= 10000\n  Scan lineitem")
        shifted = plan_fingerprint(
            "Filter l_shipdate <= 9000\n  Scan lineitem"
        )
        other = plan_fingerprint("Filter l_shipdate <= 10000\n  Scan orders")
        assert base == shifted
        assert base != other


#: The three query-store views.
EXEC_VIEWS = (
    "sys.dm_exec_query_stats",
    "sys.dm_exec_query_plans",
    "sys.dm_exec_operator_stats",
)


def _run_workload(seed):
    config = PolarisConfig(seed=seed)
    config.telemetry.query_store_enabled = True
    dw = Warehouse(config=config, auto_optimize=False)
    sql = SqlSession(dw.session())
    sql.execute("CREATE TABLE t (id BIGINT, grp STRING, val DOUBLE)")
    sql.execute(
        "INSERT INTO t (id, grp, val) "
        "VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'a', 3.5)"
    )
    for bound in (0.0, 1.0, 2.0, 1.0, 0.5):
        sql.execute(f"SELECT grp, SUM(val) FROM t WHERE val > {bound} GROUP BY grp")
    sql.execute("SELECT * FROM sys.dm_exec_query_stats")
    return dw


class TestDeterminism:
    def test_same_seed_snapshots_are_byte_identical(self):
        """Same seed, same workload: every query-store view answers
        ``SELECT *`` with the same columns, dtypes and values."""

        def dump(dw):
            session = dw.session()
            return [
                repr({c: (v.dtype, v.tolist()) for c, v in batch.items()})
                for batch in (session.sql(f"SELECT * FROM {v}") for v in EXEC_VIEWS)
            ]

        assert dump(_run_workload(seed=7)) == dump(_run_workload(seed=7))

    def test_same_seed_jsonl_exports_are_byte_identical(self, tmp_path):
        first = _run_workload(seed=11).context.introspection
        second = _run_workload(seed=11).context.introspection
        for view in EXEC_VIEWS:
            path_a = tmp_path / f"a.{view}.jsonl"
            path_b = tmp_path / f"b.{view}.jsonl"
            first.export_jsonl(view, str(path_a))
            second.export_jsonl(view, str(path_b))
            assert path_a.read_bytes() == path_b.read_bytes()
            text_a = first.export_jsonl(view)
            assert text_a == second.export_jsonl(view)
            assert path_a.read_text(encoding="utf-8") == text_a
            # Every line is valid JSON keyed by the fingerprint.
            lines = text_a.splitlines()
            assert lines, view
            for line in lines:
                record = json.loads(line)
                assert list(record) == sorted(Introspector.schema(view).names)
                assert len(record["query_hash"]) == HASH_LENGTH

    def test_different_workload_changes_snapshot(self):
        store = _run_workload(seed=7).telemetry.querystore
        probe = fingerprint("SELECT grp, SUM(val) FROM t WHERE val > 0 GROUP BY grp")
        assert store.profile(probe) is not None
        assert store.profile(probe).executions == 5
