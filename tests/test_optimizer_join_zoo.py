"""The one join: contract-name equivalence, and what statistics change."""

import numpy as np
import pytest

from repro import Warehouse
from repro.engine import operators
from repro.engine.batch import num_rows
from repro.optimizer import manager as optimizer_manager
from repro.workloads.tpch import TPCH_SQL_QUERIES
from tests.conftest import (
    CONTRACT_JOINS,
    assert_identical,
    small_config,
    tpch_warehouse,
)


def left_batch(rng, n):
    return {
        "a": rng.integers(0, 40, size=n).astype(np.int64),
        "la": rng.random(n),
    }


def right_batch(rng, n):
    return {
        "b": rng.integers(0, 40, size=n).astype(np.int64),
        "rb": rng.random(n),
    }


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("how", ["inner", "left-semi", "left-anti"])
    @pytest.mark.parametrize("algorithm", sorted(CONTRACT_JOINS))
    def test_every_algorithm_matches_hash(self, algorithm, how):
        rng = np.random.default_rng(7)
        left = left_batch(rng, 200)
        right = right_batch(rng, 120)
        reference = operators.join(left, right, ("a",), ("b",), how)
        candidate = CONTRACT_JOINS[algorithm](left, right, ("a",), ("b",), how)
        assert_identical(candidate, reference)

    @pytest.mark.parametrize("algorithm", sorted(CONTRACT_JOINS))
    def test_empty_inputs(self, algorithm):
        rng = np.random.default_rng(3)
        left = left_batch(rng, 50)
        empty = {"b": np.array([], dtype=np.int64), "rb": np.array([])}
        join = CONTRACT_JOINS[algorithm]
        out = join(left, empty, ("a",), ("b",), "inner")
        assert num_rows(out) == 0
        anti = join(left, empty, ("a",), ("b",), "left-anti")
        assert num_rows(anti) == 50

    @pytest.mark.parametrize("algorithm", sorted(CONTRACT_JOINS))
    def test_multi_key_join(self, algorithm):
        rng = np.random.default_rng(11)
        left = {
            "a": rng.integers(0, 6, size=80).astype(np.int64),
            "c": rng.integers(0, 4, size=80).astype(np.int64),
        }
        right = {
            "b": rng.integers(0, 6, size=60).astype(np.int64),
            "d": rng.integers(0, 4, size=60).astype(np.int64),
        }
        reference = operators.join(left, right, ("a", "c"), ("b", "d"), "inner")
        candidate = CONTRACT_JOINS[algorithm](
            left, right, ("a", "c"), ("b", "d"), "inner"
        )
        assert_identical(candidate, reference)


@pytest.fixture(scope="module")
def tpch():
    """An ANALYZEd TPC-H warehouse."""
    dw = tpch_warehouse(small_config())
    session = dw.session()
    for table in session.table_names():
        session.sql(f"ANALYZE {table}")
    return dw, session


JOIN_QUERIES = [q for q in sorted(TPCH_SQL_QUERIES) if q in (3, 10, 12)]


def join_operator_names(explain_text):
    """The operator name of every join line in an EXPLAIN text."""
    return {
        line.split("[")[0].strip()
        for line in explain_text.splitlines()
        if "Join[" in line
    }


class TestPlanChoiceOnTpch:
    def test_results_unchanged_by_optimization(self, tpch):
        """The rewritten plans return the same rows as a warehouse that
        never ran ANALYZE, under the one join label."""
        dw, session = tpch
        vanilla = tpch_warehouse(small_config()).session()
        for qnum in JOIN_QUERIES:
            optimized = session.sql(TPCH_SQL_QUERIES[qnum])
            plain = vanilla.sql(TPCH_SQL_QUERIES[qnum])
            assert_identical(optimized, plain)
            text = session.sql("EXPLAIN " + TPCH_SQL_QUERIES[qnum])
            assert join_operator_names(text) == {"HashJoin"}

    def test_explain_analyze_annotates_cost_and_provenance(self, tpch):
        _, session = tpch
        text = session.sql("EXPLAIN ANALYZE " + TPCH_SQL_QUERIES[3])
        assert "est=" in text and "ratio=" in text
        assert "stats=stats" in text
        assert "cost=" in text
        assert join_operator_names(text) == {"HashJoin"}


class TestOptimizerOffIsIdentity:
    def test_disabled_optimizer_keeps_hash_plans(self, config, monkeypatch):
        """With the optimizer off, ANALYZE changes no plan (with it on,
        these statistics put ``b`` first)."""
        monkeypatch.setattr(optimizer_manager, "ENABLED", False)
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        session.sql("CREATE TABLE a (x bigint, ax double)")
        session.sql("CREATE TABLE b (y bigint, by_v double)")
        session.insert(
            "a",
            {"x": np.arange(100, dtype=np.int64), "ax": np.zeros(100)},
        )
        session.insert("b", {"y": np.arange(2, dtype=np.int64), "by_v": np.zeros(2)})
        query = "EXPLAIN SELECT ax, by_v FROM a JOIN b ON x = y"
        before = session.sql(query)
        session.sql("ANALYZE a")
        session.sql("ANALYZE b")
        assert session.sql(query) == before
