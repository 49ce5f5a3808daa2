"""SQL-vs-plan equivalence on TPC-H queries expressible in the dialect.

Several TPC-H queries can be written directly in the SQL dialect; for
each, the SQL text must produce exactly the same result as the
hand-built plan in :mod:`repro.workloads.tpch.queries`, through the full
warehouse stack.
"""

import numpy as np
import pytest

from repro import SqlSession
from repro.engine.batch import num_rows
from repro.workloads.tpch import TPCH_QUERIES, TPCH_SQL_QUERIES
from tests.conftest import assert_identical, small_config, tpch_warehouse

#: The SQL texts live in repro.workloads.tpch.queries_sql so the
#: query store's fingerprint corpus and benchmarks share them.
SQL_QUERIES = TPCH_SQL_QUERIES


@pytest.fixture(scope="module")
def sql():
    return SqlSession(tpch_warehouse(small_config()).session())


def test_collectors_cost_no_simulated_time_and_change_no_answer():
    """Query store + wait stats on vs every collector off: the same
    clock to the last bit, the same bytes, one profile per fingerprint."""
    runs = 3
    off, on = small_config(), small_config()
    off.telemetry.metrics = False
    on.telemetry.query_store_enabled = True
    on.telemetry.wait_stats_enabled = True
    plain, observed = tpch_warehouse(off), tpch_warehouse(on)
    plain_sql = SqlSession(plain.session())
    observed_sql = SqlSession(observed.session())
    for _ in range(runs):
        for qnum in sorted(SQL_QUERIES):
            assert_identical(
                observed_sql.execute(SQL_QUERIES[qnum]),
                plain_sql.execute(SQL_QUERIES[qnum]),
            )
    assert observed.clock.now == plain.clock.now
    assert observed.telemetry.waits.inflight_count == 0
    stats = observed_sql.execute(
        "SELECT query_hash, executions FROM sys.dm_exec_query_stats "
        "WHERE statement_kind = 'select'"
    )
    assert len(set(stats["query_hash"])) == len(SQL_QUERIES)
    assert stats["executions"].tolist() == [runs] * len(SQL_QUERIES)


def canonical(batch):
    names = sorted(batch)
    rows = []
    for i in range(num_rows(batch)):
        row = []
        for name in names:
            value = batch[name][i]
            if isinstance(value, (float, np.floating)):
                row.append(round(float(value), 5))
            else:
                row.append(value)
        rows.append(tuple(row))
    return sorted(rows, key=repr)


@pytest.mark.parametrize("qnum", sorted(SQL_QUERIES))
def test_sql_matches_plan(qnum, sql):
    via_sql = sql.execute(SQL_QUERIES[qnum])
    via_plan = sql.session.query(TPCH_QUERIES[qnum]())
    assert set(via_sql) == set(via_plan)
    if qnum in (3, 10):
        # Top-N with ties: row counts and top values must agree.
        assert num_rows(via_sql) == num_rows(via_plan)
        np.testing.assert_allclose(
            np.sort(via_sql["revenue"]), np.sort(via_plan["revenue"])
        )
    else:
        assert canonical(via_sql) == canonical(via_plan)
