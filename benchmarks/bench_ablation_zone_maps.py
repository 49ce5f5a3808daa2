"""Ablation — range retrieval: sort key (p(r)) + file-level zone maps.

Section 2.3: "We use Z-Ordering to support range-based retrieval over a
(composite) key" — the partitioning function p(r) orders rows within each
distribution so that selective range predicates touch few files.  This
bench loads the same data sorted and unsorted (in several file batches)
and measures a selective range scan's bytes read and simulated time.

Expected shape: with the sort key, file-level zone maps prune most files
and the scan reads a fraction of the bytes; unsorted data defeats pruning.
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

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, and_

from benchmarks.support import fresh_warehouse, print_series, run_once

ROWS = 40_000
BATCHES = 8


def run_layout(sorted_layout: bool):
    dw = fresh_warehouse(auto_optimize=False)
    session = dw.session()
    session.create_table(
        "events",
        Schema.of(("event_id", "int64"), ("payload", "float64")),
        sort_column="event_id" if sorted_layout else None,
    )
    rng = np.random.default_rng(11)
    shuffled = rng.permutation(ROWS).astype(np.int64)
    per_batch = ROWS // BATCHES
    for b in range(BATCHES):
        if sorted_layout:
            # Clustered arrival (e.g. event time): each batch is one
            # contiguous key range, so each file's zone map is tight.
            chunk = np.arange(b * per_batch, (b + 1) * per_batch, dtype=np.int64)
        else:
            # Random arrival: every file spans the whole key domain.
            chunk = shuffled[b * per_batch : (b + 1) * per_batch]
        session.insert(
            "events", {"event_id": chunk, "payload": np.zeros(len(chunk))}
        )

    lo, hi = 100, 600  # 1.25% of the key domain
    plan = Aggregate(
        TableScan(
            "events",
            ("event_id",),
            predicate=and_(
                BinOp(">=", Col("event_id"), Lit(lo)),
                BinOp("<", Col("event_id"), Lit(hi)),
            ),
            prune=(("event_id", ">=", lo), ("event_id", "<", hi)),
        ),
        (),
        {"n": ("count", None)},
    )
    before = dw.store.meter.bytes_read
    start = dw.clock.now
    out = session.query(plan)
    elapsed = dw.clock.now - start
    assert out["n"][0] == hi - lo
    return elapsed, dw.store.meter.bytes_read - before


def test_ablation_zone_maps(benchmark):
    results = {}

    def workload():
        results["sorted"] = run_layout(True)
        results["unsorted"] = run_layout(False)
        return results

    run_once(benchmark, workload)

    print_series(
        "Ablation: range scan with/without sort key (p(r)) + zone maps",
        ["layout", "scan_time_s", "bytes_read"],
        [
            (layout, f"{results[layout][0]:.3f}", results[layout][1])
            for layout in ("sorted", "unsorted")
        ],
    )

    sorted_bytes = results["sorted"][1]
    unsorted_bytes = results["unsorted"][1]
    assert sorted_bytes < unsorted_bytes / 2, (
        "sorted layout should prune most files for a selective range"
    )
    assert results["sorted"][0] <= results["unsorted"][0]

    benchmark.extra_info["bytes_read"] = {
        "sorted": sorted_bytes, "unsorted": unsorted_bytes
    }


if __name__ == "__main__":
    from benchmarks.support import bench_main

    bench_main(test_ablation_zone_maps)
