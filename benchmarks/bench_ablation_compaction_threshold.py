"""Ablation — compaction aggressiveness: read cost vs write amplification.

Section 5.1: compaction trades write amplification (rewriting data files)
for scan health (fewer files, no dead rows).  This bench applies a fixed
delete-heavy workload and then measures cold-scan simulated time and the
bytes compaction wrote, under three policies: never compact, compact at
the default threshold, compact after every statement.

Expected shape: scan time drops with more aggressive compaction; bytes
written by compaction grow.
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

import numpy as np

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse, and_

from benchmarks.support import bench_config, print_series, run_once

ROWS = 8_000
DELETE_ROUNDS = 6


def run_policy(policy: str):
    config = bench_config()
    config.sto.min_healthy_rows_per_file = 400
    # CPU-dominated cost regime at micro scale, so the read amplification
    # of dead rows (the thing compaction removes) is visible in scan time.
    config.dcp.seconds_per_million_rows = 60.0
    config.dcp.per_file_overhead_s = 0.05
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    tid = session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")), distribution_column="id"
    )
    session.insert(
        "t", {"id": np.arange(ROWS, dtype=np.int64), "v": np.zeros(ROWS)}
    )
    compaction_bytes = 0
    slice_size = ROWS // (DELETE_ROUNDS * 2)
    for round_index in range(DELETE_ROUNDS):
        lo = round_index * slice_size
        hi = lo + slice_size
        session.delete(
            "t",
            and_(BinOp(">=", Col("id"), Lit(lo)), BinOp("<", Col("id"), Lit(hi))),
            prune=[("id", ">=", lo), ("id", "<", hi)],
        )
        if policy == "every-statement":
            before = dw.store.meter.bytes_written
            dw.sto.run_compaction(tid)
            compaction_bytes += dw.store.meter.bytes_written - before
    if policy == "at-end":
        before = dw.store.meter.bytes_written
        dw.sto.run_compaction(tid)
        compaction_bytes += dw.store.meter.bytes_written - before

    dw.context.cache.invalidate()
    start = dw.clock.now
    session.query(Aggregate(TableScan("t", ("id",)), (), {"n": ("count", None)}))
    scan_time = dw.clock.now - start
    snapshot = session.table_snapshot("t")
    return scan_time, compaction_bytes, len(snapshot.files), len(snapshot.dvs)


def test_ablation_compaction_threshold(benchmark):
    results = {}

    def workload():
        for policy in ("never", "at-end", "every-statement"):
            results[policy] = run_policy(policy)
        return results

    run_once(benchmark, workload)

    print_series(
        "Ablation: compaction policy after a delete-heavy stream",
        ["policy", "cold_scan_s", "compaction_bytes", "files", "dvs"],
        [
            (
                policy,
                f"{results[policy][0]:.3f}",
                results[policy][1],
                results[policy][2],
                results[policy][3],
            )
            for policy in ("never", "at-end", "every-statement")
        ],
    )

    never, at_end, aggressive = (
        results["never"], results["at-end"], results["every-statement"]
    )
    # Compaction removes DVs and dead rows: cold scans get cheaper.
    assert at_end[0] < never[0]
    # Write amplification grows with aggressiveness (periodic rewrites of
    # partially-deleted files add up past the single final rewrite).
    assert aggressive[1] >= at_end[1] > never[1] == 0
    # The final compaction folds every DV in; the aggressive policy may
    # leave DVs from deletes after its last trigger fired.
    assert at_end[3] == 0 and never[3] > 0

    benchmark.extra_info["results"] = {
        policy: {"scan_s": r[0], "bytes": r[1]} for policy, r in results.items()
    }


if __name__ == "__main__":
    from benchmarks.support import bench_main

    bench_main(test_ablation_compaction_threshold)
