"""End-to-end query store: TPC-H profiles, DMVs, attribution, regressions,
and crash hygiene.

The store is exercised the way a user would reach it — SQL statements in,
``sys.dm_exec_*`` rows out — plus the two paths that justify its design:
the watchdog's ``plan_latency_regression`` rule firing off the regression
counter, and recovery discarding half-measured profiles after a simulated
crash (never double-counting, never leaking them into the aggregates).
"""

import numpy as np
import pytest

from repro import PolarisConfig, Schema, Warehouse
from repro.chaos import ChaosController, RecoveryManager, SimulatedCrash
from repro.common.clock import SimulatedClock
from repro.common.errors import PolarisError
from repro.service import Gateway
from repro.sql.runner import SqlSession
from repro.telemetry import MetricSample, Watchdog, default_rules, fingerprint
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry import querystore
from repro.telemetry.querystore import QueryStore
from repro.workloads.tpch import TPCH_SQL_QUERIES, TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS

POWER_RUNS = 2

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def store_config(**overrides):
    config = PolarisConfig()
    config.telemetry.query_store_enabled = True
    for key, value in overrides.items():
        setattr(config.telemetry, key, value)
    return config


def rows_of(batch):
    """Column batch -> list of per-row dicts, for readable assertions."""
    names = list(batch)
    count = len(batch[names[0]]) if names else 0
    return [{n: batch[n][i] for n in names} for i in range(count)]


@pytest.fixture(scope="module")
def tpch():
    """A TPC-H warehouse after POWER_RUNS SQL power runs, store enabled."""
    dw = Warehouse(config=store_config(), auto_optimize=False)
    session = dw.session()
    generator = TpchGenerator(scale_factor=0.05, seed=42)
    for name, table in generator.all_tables().items():
        session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
        session.insert(name, table)
    sql = SqlSession(dw.session())
    # A SQL-created side table so DDL/DML kinds enter the store too (the
    # TPC-H load above goes through the Python API, which is unprofiled).
    sql.execute("CREATE TABLE side (id BIGINT, v DOUBLE)")
    sql.execute("INSERT INTO side (id, v) VALUES (1, 1.5), (2, 2.5)")
    for _ in range(POWER_RUNS):
        for __, text in sorted(TPCH_SQL_QUERIES.items()):
            sql.execute(text)
    return dw, sql


class TestTpchPowerRun:
    def test_one_stats_row_per_fingerprint(self, tpch):
        __, sql = tpch
        expected = {fingerprint(t) for t in TPCH_SQL_QUERIES.values()}
        batch = sql.execute("SELECT * FROM sys.dm_exec_query_stats")
        rows = [r for r in rows_of(batch) if r["query_hash"] in expected]
        assert {r["query_hash"] for r in rows} == expected
        for row in rows:
            assert row["statement_kind"] == "select"
            assert row["executions"] == POWER_RUNS
            assert row["errors"] == 0
            assert row["total_sim_s"] > 0.0
            assert row["p95_s"] > 0.0
            assert row["p50_s"] <= row["p95_s"] <= row["p99_s"]
            assert row["plan_count"] == 1
            assert row["last_seen"] > row["first_seen"]

    def test_query_text_is_normalized_not_raw(self, tpch):
        __, sql = tpch
        batch = sql.execute(
            "SELECT query_text FROM sys.dm_exec_query_stats "
            "WHERE statement_kind = 'select'"
        )
        q6 = [t for t in batch["query_text"] if "lineitem" in t and "?" in t]
        assert q6, "normalized texts should parameterize literals"
        assert not any("1994-01-01" in t for t in batch["query_text"])

    def test_plans_view_joins_back_to_stats(self, tpch):
        __, sql = tpch
        expected = {fingerprint(t) for t in TPCH_SQL_QUERIES.values()}
        batch = sql.execute("SELECT * FROM sys.dm_exec_query_plans")
        rows = [r for r in rows_of(batch) if r["query_hash"] in expected]
        assert {r["query_hash"] for r in rows} == expected
        for row in rows:
            assert row["executions"] == POWER_RUNS
            assert "Scan" in row["plan_text"]
            assert len(row["plan_hash"]) == len(row["query_hash"])

    def test_operator_stats_carry_cardinality_feedback(self, tpch):
        __, sql = tpch
        q6 = fingerprint(TPCH_SQL_QUERIES[6])
        batch = sql.execute("SELECT * FROM sys.dm_exec_operator_stats")
        rows = [r for r in rows_of(batch) if r["query_hash"] == q6]
        assert rows, "Q6 must have operator rows"
        by_op = {r["operator"]: r for r in rows}
        scan = by_op["Scan lineitem"]
        assert scan["executions"] == POWER_RUNS
        assert scan["actual_rows"] > 0
        assert scan["est_rows"] > 0
        assert scan["misestimate"] >= 1.0
        assert scan["files"] > 0
        # The whole point of the feedback loop: estimates and actuals are
        # both present, so an optimizer can learn the gap per operator.
        assert any(r["sim_time_s"] > 0 for r in rows)
        assert [r["operator_id"] for r in rows] == sorted(
            r["operator_id"] for r in rows
        )

    def test_ddl_and_dml_fingerprints_recorded(self, tpch):
        dw, __ = tpch
        kinds = {
            p.statement_kind for p in dw.telemetry.querystore.profiles()
        }
        assert {"createtable", "insert", "select"} <= kinds
        insert_profiles = [
            p
            for p in dw.telemetry.querystore.profiles()
            if p.statement_kind == "insert"
        ]
        assert insert_profiles
        assert all(p.total_rows > 0 for p in insert_profiles)

    def test_bytes_read_accumulates_for_scans(self, tpch):
        dw, __ = tpch
        q1 = dw.telemetry.querystore.profile(fingerprint(TPCH_SQL_QUERIES[1]))
        assert q1 is not None
        assert q1.total_bytes_read > 0

    def test_views_are_explainable(self, tpch):
        __, sql = tpch
        text = sql.execute("EXPLAIN SELECT * FROM sys.dm_exec_query_stats")
        assert "sys.dm_exec_query_stats" in text

    def test_explain_never_enters_the_store(self, tpch):
        dw, sql = tpch
        store = dw.telemetry.querystore
        count = len(store.profiles())
        sql.execute("EXPLAIN SELECT l_orderkey FROM lineitem WHERE l_tax > 0.01")
        assert len(store.profiles()) == count

    def test_export_jsonl_has_all_fingerprints(self, tpch, tmp_path):
        dw, __ = tpch
        store = dw.telemetry.querystore
        path = tmp_path / "querystore.jsonl"
        dw.context.introspection.export_jsonl("sys.dm_exec_query_stats", str(path))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == len(store.profiles())


class TestDisabledFlag:
    def test_store_absent_and_statements_unaffected(self):
        dw = Warehouse(config=PolarisConfig(), auto_optimize=False)
        assert dw.telemetry.querystore is None
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        sql.execute("INSERT INTO t (id, v) VALUES (1, 1.5), (2, 2.5)")
        batch = sql.execute("SELECT id FROM t WHERE v > 2.0")
        assert list(batch["id"]) == [2]
        stats = sql.execute("SELECT * FROM sys.dm_exec_query_stats")
        assert len(stats["query_hash"]) == 0


class TestFingerprintedOnce:
    @pytest.mark.parametrize("collectors_on, per_statement", [(True, 1), (False, 0)])
    def test_normalize_sql_calls_per_statement(
        self, monkeypatch, collectors_on, per_statement
    ):
        """Query store + wait stats share one fingerprint per statement;
        with both off nothing is fingerprinted at all."""
        from repro.telemetry import querystore

        calls = []
        real = querystore.normalize_sql

        def counting(text, tokens=None):
            calls.append(text)
            return real(text, tokens)

        monkeypatch.setattr(querystore, "normalize_sql", counting)
        config = PolarisConfig()
        config.telemetry.query_store_enabled = collectors_on
        config.telemetry.wait_stats_enabled = collectors_on
        dw = Warehouse(config=config, auto_optimize=False)
        sql = SqlSession(dw.session())
        statements = [
            "CREATE TABLE t (id BIGINT, v DOUBLE)",
            "INSERT INTO t (id, v) VALUES (1, 1.5)",
            "SELECT id FROM t",
        ]
        for text in statements:
            sql.execute(text)
        assert len(calls) == per_statement * len(statements)

    def test_each_statement_is_lexed_once(self, monkeypatch):
        """The parser, the plan cache key and the fingerprint share one
        token list: one lex per statement, a plan-cache hit included."""
        from repro.sql import lexer

        lexed = []
        real = lexer._tokens

        def counting(text):
            lexed.append(text)
            return real(text)

        monkeypatch.setattr(lexer, "_tokens", counting)
        dw = Warehouse(config=store_config(wait_stats_enabled=True), auto_optimize=False)
        sql = SqlSession(dw.session())
        statements = [
            "CREATE TABLE t (id BIGINT, v DOUBLE)",
            "INSERT INTO t (id, v) VALUES (1, 1.5), (2, 2.5)",
            "SELECT id FROM t WHERE id = 1",
            "SELECT id FROM t WHERE id = 2",
        ]
        for text in statements:
            sql.execute(text)
        assert lexed == statements
        assert dw.context.plan_cache.hits.value == 1

    def test_bytes_read_is_the_io_meter_delta_of_the_statement(self):
        dw = Warehouse(config=store_config(), auto_optimize=False)
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        sql.execute("INSERT INTO t (id, v) VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
        text = "SELECT id, v FROM t WHERE id > 1"
        before = dw.store.meter.bytes_read
        sql.execute(text)
        read = dw.store.meter.bytes_read - before
        rows = rows_of(sql.execute("SELECT * FROM sys.dm_exec_query_stats"))
        (row,) = [r for r in rows if r["query_hash"] == fingerprint(text)]
        assert read > 0 and row["total_bytes_read"] == read


class TestFingerprintCorpus:
    #: sha256 of ``[text, normalized, query_hash]`` over :func:`_corpus`,
    #: as computed when ``normalize_sql`` lexed its own text.
    DIGEST = "b155443ded9c2b3300adf79211c10a3e6743663d1df8961b8889632eb0e977cc"

    @staticmethod
    def _corpus():
        """The 22 TPC-H texts and the benchmark workloads' statements."""
        from types import SimpleNamespace

        from benchmarks.e2e.workloads.sql_point_lookup import SqlPointLookup
        from benchmarks.e2e.workloads.txn_contention import (
            TOTALS_SQL,
            _transaction,
        )

        texts = [TPCH_SQL_QUERIES[name] for name in sorted(TPCH_SQL_QUERIES)]
        state = SimpleNamespace(
            customers=50,
            order_keys=np.arange(1, 201, dtype=np.int64),
            sorted_order_custkeys=np.sort(np.arange(200) % 50 + 1),
            sorted_line_orderkeys=np.repeat(np.arange(1, 201), 3),
            sorted_shipdates=np.arange(9000, 9600, dtype=np.int64),
        )
        lookups = SqlPointLookup(seed=0, quick=True)
        for k in range(2):
            texts += [text for text, _ in lookups.statements(state, k)]
        accounts = SimpleNamespace(next_id=200)
        for key in (0, 7, 123):
            texts += _transaction(accounts, key)
        texts += [TOTALS_SQL, "BEGIN", "COMMIT", "ROLLBACK",
                  "SELECT COUNT(*) AS n FROM lineitem"]
        return texts

    def test_fingerprints_are_unchanged(self):
        import hashlib
        import json

        from repro.sql.lexer import tokenize
        from repro.telemetry.querystore import normalize_and_hash

        texts = self._corpus()
        assert len(texts) == 52
        for fingerprint_of in (
            normalize_and_hash,
            lambda text: normalize_and_hash(text, tokenize(text)),
        ):
            rows = [[text, *fingerprint_of(text)] for text in texts]
            digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            assert digest == self.DIGEST


class TestGatewayAttribution:
    def test_tenant_and_workload_class_flow_into_stats(self):
        config = store_config()
        config.distributions = 4
        config.rows_per_cell = 1_000
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        ids = np.arange(0, 20, dtype=np.int64)
        session.insert("t", {"id": ids, "v": ids.astype(np.float64)})
        gateway = Gateway(dw.context)
        gateway.submit("tenant_a", "analytical", "SELECT id FROM t WHERE id < 5")
        gateway.submit("tenant_b", "transactional", "SELECT id FROM t WHERE id < 9")
        gateway.run()

        profile = dw.telemetry.querystore.profile(
            fingerprint("SELECT id FROM t WHERE id < 5")
        )
        assert profile is not None
        assert profile.executions == 2  # both submits share one fingerprint
        row = next(
            r
            for r in dw.telemetry.querystore.query_stats_rows()
            if r["query_hash"] == profile.query_hash
        )
        assert row["tenants"] == "tenant_a,tenant_b"
        assert row["workload_classes"] == "analytical,transactional"

    def test_direct_sessions_carry_no_attribution(self):
        dw = Warehouse(config=store_config(), auto_optimize=False)
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        sql.execute("INSERT INTO t (id, v) VALUES (1, 1.0)")
        sql.execute("SELECT id FROM t")
        row = next(
            r
            for r in dw.telemetry.querystore.query_stats_rows()
            if r["statement_kind"] == "select"
        )
        assert row["tenants"] == ""
        assert row["workload_classes"] == ""


class TestRegressionDetection:
    def run_at(self, store, clock, latency_s):
        pending = store.start("SELECT a FROM t WHERE b > 1", "select")
        clock.advance(latency_s)
        store.finish(pending, rows=1)

    def test_baseline_freeze_then_regression_fires_once(self):
        clock = SimulatedClock()
        metrics = MetricsRegistry()
        store = QueryStore(clock, metrics=metrics, seed=0)

        for _ in range(querystore.MIN_HISTORY):
            self.run_at(store, clock, 1.0)
        profile = store.profiles()[0]
        assert profile.baseline_p95_s == pytest.approx(1.0)
        assert profile.regressions == 0

        # Recent p95 must cross factor x baseline across the window.
        for _ in range(querystore.RECENT_WINDOW):
            self.run_at(store, clock, 3.0)
        assert profile.regressions == 1
        assert (
            metrics.value(
                "querystore.plan_regressions", query_hash=profile.query_hash
            )
            == 1.0
        )

        # Still regressed: no re-fire until the profile recovers.
        self.run_at(store, clock, 3.0)
        assert profile.regressions == 1
        for _ in range(querystore.RECENT_WINDOW):
            self.run_at(store, clock, 1.0)
        for _ in range(querystore.RECENT_WINDOW):
            self.run_at(store, clock, 3.0)
        assert profile.regressions == 2

    def test_watchdog_rule_fires_on_regression_counter(self):
        metrics = MetricsRegistry()
        dog = Watchdog(metrics, None, rules=default_rules())
        dog.observe(
            MetricSample(
                sample_id=0,
                at=1.0,
                values={"querystore.plan_regressions{query_hash=abc}": 0.0},
            )
        )
        dog.observe(
            MetricSample(
                sample_id=1,
                at=2.0,
                values={"querystore.plan_regressions{query_hash=abc}": 1.0},
            )
        )
        assert [a["rule"] for a in dog.alerts] == ["plan_latency_regression"]

    def test_stable_latency_never_alarms(self):
        clock = SimulatedClock()
        store = QueryStore(clock, seed=0)
        for _ in range(64):
            self.run_at(store, clock, 1.0)
        assert store.profiles()[0].regressions == 0


class TestCrashHygiene:
    def test_crashed_statement_is_scavenged_not_counted(self):
        dw = Warehouse(config=store_config(), auto_optimize=False)
        dw.sto.auto_publish = True
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        store = dw.telemetry.querystore
        insert_text = "INSERT INTO t (id, v) VALUES (1, 1.0)"
        insert_hash = fingerprint(insert_text)

        controller = ChaosController(seed=0).arm("fe.write.before_manifest_flush")
        with controller:
            with pytest.raises(SimulatedCrash):
                sql.execute(insert_text)

        # The dead process never reported: the execution is in flight.
        assert store.inflight_count == 1
        assert store.profile(insert_hash) is None

        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.scavenged == {"querystore": 1}
        assert store.inflight_count == 0
        # Discarded for good: no profile row, no partial aggregates.
        assert store.profile(insert_hash) is None
        assert (
            dw.telemetry.metrics.value(
                "recovery.scavenged", participant="querystore"
            )
            == 1.0
        )

        # The same statement after recovery profiles normally.
        sql2 = SqlSession(dw.session())
        sql2.execute(insert_text)
        assert store.profile(insert_hash).executions == 1

    def test_failed_statement_folds_as_error(self):
        dw = Warehouse(config=store_config(), auto_optimize=False)
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        bad = "SELECT nope FROM t"
        with pytest.raises(PolarisError):
            sql.execute(bad)
        profile = dw.telemetry.querystore.profile(fingerprint(bad))
        assert profile is not None
        assert profile.errors == 1
        assert profile.executions == 0
