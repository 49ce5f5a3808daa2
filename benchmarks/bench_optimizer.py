"""Cost-based optimizer win — TPC-H joins with statistics+indexes off vs on.

Two identically loaded TPC-H warehouses run the same join queries.  The
baseline warehouse never runs ``ANALYZE`` (the optimizer is an identity
transform without statistics); the optimized one collects statistics on
every table and builds secondary indexes on the foreign-key join columns
(``orders.o_custkey``, ``lineitem.l_orderkey``) — columns the hash
distribution scatters, so zone maps alone cannot prune equality probes
on them.

Measured per query: simulated seconds off vs on.  The point-lookup join
must win big: its customer-key equality propagates transitively to the
``orders`` scan, where the secondary index proves most data files cannot
match.  The run gates that win at >= 20% simulated time (the ISSUE's
acceptance bar) and also checks the optimizer actually changed a plan
(at least one EXPLAIN differs once statistics exist).
"""

# Script mode (``python benchmarks/bench_*.py``): make repo-root imports
# resolvable before the ``benchmarks``/``repro`` imports below.
if __package__ in (None, ""):
    import os
    import sys

    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for _path in (os.path.join(_ROOT, "src"), _ROOT):
        if _path not in sys.path:
            sys.path.insert(0, _path)

from repro.sql.runner import SqlSession
from repro.workloads.tpch import TPCH_SQL_QUERIES, TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS

from benchmarks.support import fresh_warehouse, print_series, run_once

SCALE = 0.2

#: Minimum simulated-time win required on at least one join query.
REQUIRED_WIN = 0.20

#: The join queries measured: two TPC-H corpus queries plus a targeted
#: point-lookup join whose equality predicate the optimizer can push
#: through the join and answer via the secondary index.
POINT_JOIN = (
    "SELECT o_orderkey, o_totalprice "
    "FROM orders JOIN customer ON o_custkey = c_custkey "
    "WHERE c_custkey = 42"
)

QUERIES = {
    "Q03": TPCH_SQL_QUERIES[3],
    "Q10": TPCH_SQL_QUERIES[10],
    "point_join": POINT_JOIN,
}

#: Secondary indexes built on the optimized warehouse.
INDEXES = (
    ("customer", "idx_customer_custkey", "c_custkey"),
    ("orders", "idx_orders_custkey", "o_custkey"),
    ("lineitem", "idx_lineitem_orderkey", "l_orderkey"),
)


def load_tpch():
    """A TPC-H-loaded warehouse (optimizer on, but stats-free so far)."""
    dw = fresh_warehouse(
        elastic=True, separate_pools=True, auto_optimize=False
    )
    session = dw.session()
    generator = TpchGenerator(scale_factor=SCALE, seed=42)
    for name, batch in generator.all_tables().items():
        session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
        session.insert(name, batch)
    return dw, session


def explain_queries(session):
    """{query: EXPLAIN text} over QUERIES."""
    sql = SqlSession(session)
    return {
        name: sql.execute("EXPLAIN " + text)
        for name, text in sorted(QUERIES.items())
    }


def run_queries(dw, session):
    """{query: simulated seconds} for one pass over QUERIES."""
    sql = SqlSession(session)
    times = {}
    for name, text in sorted(QUERIES.items()):
        start = dw.clock.now
        sql.execute(text)
        times[name] = dw.clock.now - start
    return times


def test_optimizer_speedup(benchmark):
    state = {}

    def workload():
        plain_dw, plain_session = load_tpch()
        state["plain_times"] = run_queries(plain_dw, plain_session)

        tuned_dw, tuned_session = load_tpch()
        state["plans_before"] = explain_queries(tuned_session)
        for table in tuned_session.table_names():
            tuned_session.analyze_table(table)
        for table, index_name, column in INDEXES:
            tuned_session.create_index(table, index_name, column)
        state["plans"] = explain_queries(tuned_session)
        state["tuned_times"] = run_queries(tuned_dw, tuned_session)
        return state

    run_once(benchmark, workload)

    plain, tuned = state["plain_times"], state["tuned_times"]
    wins = {name: 1.0 - tuned[name] / plain[name] for name in plain}
    print_series(
        "Optimizer win: TPC-H joins, stats+indexes off vs on",
        ["query", "off_s", "on_s", "win"],
        [
            (name, f"{plain[name]:.3f}", f"{tuned[name]:.3f}",
             f"{wins[name]:+.1%}")
            for name in sorted(plain)
        ],
    )

    # At least one plan differs once statistics exist.
    changed = [
        name
        for name, text in state["plans"].items()
        if text != state["plans_before"][name]
    ]
    print(f"\nplans changed by statistics: {sorted(changed)}")
    assert changed, "no measured query's plan changed with stats"

    best = max(wins, key=lambda name: wins[name])
    print(f"best win: {best} {wins[best]:+.1%} (required >= {REQUIRED_WIN:.0%})")
    assert wins[best] >= REQUIRED_WIN, (
        f"best simulated-time win {wins[best]:.1%} on {best} is below the "
        f"{REQUIRED_WIN:.0%} acceptance bar"
    )

    benchmark.extra_info["best_win_fraction"] = round(wins[best], 6)
    for name in sorted(plain):
        benchmark.extra_info[f"{name}_off_s"] = round(plain[name], 6)
        benchmark.extra_info[f"{name}_on_s"] = round(tuned[name], 6)


if __name__ == "__main__":
    from benchmarks.support import bench_main

    bench_main(test_optimizer_speedup)
