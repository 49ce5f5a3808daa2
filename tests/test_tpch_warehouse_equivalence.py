"""End-to-end equivalence: TPC-H through the warehouse vs in-memory truth.

Every one of the 22 queries is executed twice — once over batches held in
memory (plain executor, no storage involved) and once through the full
Polaris stack (LST files on the object store, distributed scans, snapshot
reconstruction) — and the results must match row for row.  This validates
the entire storage and read path against a trusted oracle.

A second, metamorphic check runs every query through the three read
entry points (plain, profiled for the query store, EXPLAIN ANALYZE) on
three identically built warehouses: observing a run must change neither
a byte of the result nor a tick of the simulated clock.  The same three
warehouses also differ in the state of their decompressed-chunk cache —
warm, cleared before every query, zero budget — which must change
neither as well.
"""

import numpy as np
import pytest

from repro import Warehouse
from repro.engine.batch import num_rows
from repro.engine.executor import dict_scan_source, execute_plan
from repro.engine.planner import preorder
from repro.pagefile.cache import ChunkCache
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads.tpch import TPCH_QUERIES, TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS
from tests.conftest import small_config

SCALE = 0.05


@pytest.fixture(scope="module")
def tables():
    return TpchGenerator(scale_factor=SCALE, seed=42).all_tables()


def loaded_warehouse(tables) -> Warehouse:
    dw = Warehouse(config=small_config(), auto_optimize=False)
    session = dw.session()
    for name, batch in tables.items():
        session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
        session.insert(name, batch)
    return dw


@pytest.fixture(scope="module")
def setup(tables):
    return loaded_warehouse(tables).session(), dict_scan_source(tables)


@pytest.fixture(scope="module")
def triplet(tables):
    """Three warehouses with identical histories, one per entry point.

    Each also gets one state of the chunk cache: the plain one is warm
    (every warehouse runs all 22 queries once here, so the histories stay
    identical), the profiled one is cleared before every query, the
    analyzed one has a zero budget and never holds anything.
    """
    warehouses = [loaded_warehouse(tables) for _ in range(3)]
    warehouses[2].context.chunk_cache = ChunkCache(MetricsRegistry(), budget_bytes=0)
    for dw in warehouses:
        for qnum in sorted(TPCH_QUERIES):
            dw.session().query(TPCH_QUERIES[qnum]())
    return warehouses


def canonical(batch):
    """Order-insensitive canonical form of a result batch."""
    names = sorted(batch)
    rows = []
    count = num_rows(batch)
    for i in range(count):
        row = []
        for name in names:
            value = batch[name][i]
            if isinstance(value, (float, np.floating)):
                row.append(round(float(value), 6))
            else:
                row.append(value)
        rows.append(tuple(row))
    return sorted(rows, key=repr)


@pytest.mark.parametrize("qnum", sorted(TPCH_QUERIES))
def test_query_equivalence(qnum, setup):
    session, memory_source = setup
    plan = TPCH_QUERIES[qnum]()
    expected = execute_plan(plan, memory_source)
    actual = session.query(plan)
    assert set(expected) == set(actual), "column sets differ"
    if qnum in (2, 3, 10, 18, 21):
        # Top-N queries: ties at the cutoff make row identity ambiguous
        # between executions; compare counts and the sort column's values.
        assert num_rows(actual) == num_rows(expected)
    else:
        assert canonical(actual) == canonical(expected)


def assert_byte_identical(actual, expected):
    assert list(actual) == list(expected), "column names or order differ"
    for name, want in expected.items():
        got = actual[name]
        assert got.dtype == want.dtype, name
        if want.dtype.kind == "O":
            assert got.tolist() == want.tolist(), name
        else:
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("qnum", sorted(TPCH_QUERIES))
def test_observed_runs_match_plain_run(qnum, triplet):
    plain_dw, profiled_dw, analyzed_dw = triplet
    warm, cold, off = (dw.context.chunk_cache for dw in triplet)
    cold.clear()
    warm_misses, cold_misses = warm.misses.value, cold.misses.value
    plan = TPCH_QUERIES[qnum]()
    plain = plain_dw.session().query(plan)
    profile = profiled_dw.session().query_profiled(plan)
    analyzed = analyzed_dw.session().explain_analyze(plan)
    assert_byte_identical(profile.batch, plain)
    assert_byte_identical(analyzed.batch, plain)
    # The three runs really were warm / cold / uncached.
    assert warm.misses.value == warm_misses and warm.hits.value > 0
    assert cold.misses.value > cold_misses
    assert len(off) == 0 and off.hits.value == 0
    # Identical histories, so not just the elapsed time but the absolute
    # simulated clocks must agree, to the last bit.
    assert profiled_dw.clock.now == plain_dw.clock.now
    assert analyzed_dw.clock.now == plain_dw.clock.now
    # Every operator of the executed plan was observed (stats are keyed
    # by node identity; several queries reuse a subplan object).
    for result in (profile, analyzed):
        assert set(result.stats) == {id(node) for node in preorder(result.plan)}
