"""The join-algorithm zoo: equivalence, cost model, and plan choice."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.engine import operators
from repro.engine.batch import num_rows
from repro.engine.explain import JOIN_ALGORITHM_LABELS
from repro.engine.operators import JOIN_ALGORITHMS
from repro.optimizer.cost import (
    HASH_SPILL_ROWS,
    choose_join_algorithm,
    join_algorithm_cost,
)
from repro.workloads.tpch import TPCH_SQL_QUERIES, TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS
from tests.conftest import small_config


def assert_identical(candidate, reference):
    """Same columns in the same order, same dtypes, same rows *in order*
    (sorting rows first would hide an algorithm that emits another order)."""
    assert list(candidate) == list(reference)
    for name in reference:
        assert candidate[name].dtype == reference[name].dtype, name
        assert np.array_equal(candidate[name], reference[name]), name


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
    @pytest.mark.parametrize("algorithm", sorted(JOIN_ALGORITHMS))
    def test_every_algorithm_matches_hash(self, algorithm, how):
        rng = np.random.default_rng(7)
        left = left_batch(rng, 200)
        right = right_batch(rng, 120)
        reference = operators.join(
            left, right, ("a",), ("b",), how, algorithm="hash"
        )
        candidate = operators.join(
            left, right, ("a",), ("b",), how, algorithm=algorithm
        )
        assert_identical(candidate, reference)

    @pytest.mark.parametrize("algorithm", sorted(JOIN_ALGORITHMS))
    def test_empty_inputs(self, algorithm):
        rng = np.random.default_rng(3)
        left = left_batch(rng, 50)
        empty = {"b": np.array([], dtype=np.int64), "rb": np.array([])}
        out = operators.join(
            left, empty, ("a",), ("b",), "inner", algorithm=algorithm
        )
        assert num_rows(out) == 0
        anti = operators.join(
            left, empty, ("a",), ("b",), "left-anti", algorithm=algorithm
        )
        assert num_rows(anti) == 50

    @pytest.mark.parametrize("algorithm", sorted(JOIN_ALGORITHMS))
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
        reference = operators.join(
            left, right, ("a", "c"), ("b", "d"), "inner", algorithm="hash"
        )
        candidate = operators.join(
            left, right, ("a", "c"), ("b", "d"), "inner", algorithm=algorithm
        )
        assert_identical(candidate, reference)


class TestCostModel:
    def test_every_algorithm_is_priced(self):
        for algorithm in JOIN_ALGORITHMS:
            cost = join_algorithm_cost(algorithm, 1000.0, 1000.0, 500.0)
            assert cost > 0.0

    def test_unknown_algorithm_raises(self):
        from repro.common.errors import PlanError

        with pytest.raises(PlanError):
            join_algorithm_cost("merge_hash", 1.0, 1.0, 1.0)

    def test_tiny_build_side_prefers_block_nl(self):
        algorithm, _ = choose_join_algorithm(
            1000.0, 2.0, 1000.0, right_index=False
        )
        assert algorithm == "block_nl"

    def test_spilling_build_side_prefers_sort_merge(self):
        # Just past the spill threshold the hash join pays the re-read
        # penalty while n·log2(n) is still cheap: sort-merge wins there.
        big = float(HASH_SPILL_ROWS) * 1.5
        spilled = join_algorithm_cost("hash", big, big, big)
        sorted_cost = join_algorithm_cost("sort_merge", big, big, big)
        assert sorted_cost < spilled
        algorithm, _ = choose_join_algorithm(big, big, big, right_index=False)
        assert algorithm == "sort_merge"

    def test_index_nl_needs_an_index(self):
        # A tiny probe side over a huge indexed build side: index_nl wins,
        # but only when the catalog actually has the index.
        args = (10.0, 1.0e6, 10.0)
        with_index, _ = choose_join_algorithm(*args, right_index=True)
        without, _ = choose_join_algorithm(*args, right_index=False)
        assert with_index == "index_nl"
        assert without != "index_nl"

    def test_choice_is_deterministic(self):
        picks = {
            choose_join_algorithm(500.0, 500.0, 400.0, right_index=True)
            for _ in range(10)
        }
        assert len(picks) == 1

    def test_labels_cover_the_zoo(self):
        assert set(JOIN_ALGORITHM_LABELS) == set(JOIN_ALGORITHMS)


@pytest.fixture(scope="module")
def tpch():
    dw = Warehouse(config=small_config(), auto_optimize=False)
    session = dw.session()
    generator = TpchGenerator(scale_factor=0.05, seed=42)
    for name, batch in generator.all_tables().items():
        session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
        session.insert(name, batch)
    return dw, session


JOIN_QUERIES = [q for q in sorted(TPCH_SQL_QUERIES) if q in (3, 10, 12)]


class TestPlanChoiceOnTpch:
    def test_explain_switches_algorithm_with_stats(self, tpch):
        """ISSUE acceptance: at least one TPC-H join query plans a
        different join algorithm once statistics exist."""
        _, session = tpch
        tables = session.table_names()
        before = {
            q: session.sql("EXPLAIN " + TPCH_SQL_QUERIES[q])
            for q in JOIN_QUERIES
        }
        for query_text in before.values():
            assert "HashJoin" in query_text  # stats-free default
        for table in tables:
            session.sql(f"ANALYZE {table}")
        after = {
            q: session.sql("EXPLAIN " + TPCH_SQL_QUERIES[q])
            for q in JOIN_QUERIES
        }
        switched = [
            q
            for q in JOIN_QUERIES
            if any(
                label in after[q]
                for name, label in JOIN_ALGORITHM_LABELS.items()
                if name != "hash"
            )
        ]
        assert switched, "no TPC-H join query changed algorithm with stats"

    def test_results_unchanged_by_optimization(self, tpch):
        """The rewritten plans return the same rows (module fixture has
        stats by now thanks to the test above running first)."""
        dw, session = tpch
        baseline = Warehouse(config=small_config(), auto_optimize=False)
        vanilla = baseline.session()
        generator = TpchGenerator(scale_factor=0.05, seed=42)
        for name, batch in generator.all_tables().items():
            vanilla.create_table(
                name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name]
            )
            vanilla.insert(name, batch)
        for qnum in JOIN_QUERIES:
            optimized = session.sql(TPCH_SQL_QUERIES[qnum])
            plain = vanilla.sql(TPCH_SQL_QUERIES[qnum])
            assert_identical(optimized, plain)

    def test_explain_analyze_annotates_cost_and_provenance(self, tpch):
        _, session = tpch
        text = session.sql("EXPLAIN ANALYZE " + TPCH_SQL_QUERIES[3])
        assert "est=" in text and "ratio=" in text
        assert "stats=stats" in text
        assert "cost=" in text


class TestOptimizerOffIsIdentity:
    def test_disabled_optimizer_keeps_hash_plans(self, config):
        config.optimizer.enabled = False
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        session.sql("CREATE TABLE a (x bigint, ax double)")
        session.sql("CREATE TABLE b (y bigint, by_v double)")
        session.insert(
            "a",
            {"x": np.arange(100, dtype=np.int64), "ax": np.zeros(100)},
        )
        session.insert("b", {"y": np.arange(2, dtype=np.int64), "by_v": np.zeros(2)})
        session.sql("ANALYZE a")
        session.sql("ANALYZE b")
        text = session.sql(
            "EXPLAIN SELECT ax, by_v FROM a JOIN b ON x = y"
        )
        assert "HashJoin" in text
        for label in ("SortMergeJoin", "BlockNLJoin", "IndexNLJoin"):
            assert label not in text
