"""Ablation — the cost of enforcing unique constraints (Section 4.4.3).

The paper: "We do not currently enforce Unique and Primary Key
constraints.  To do so requires checking for duplicates, and this will
have a severe impact on all changes, including inserts."  This bench
measures exactly that: the same trickle-insert stream into a table with
and without unique-key enforcement, reporting simulated insert time and
the extra storage reads the duplicate checks perform.

Expected shape: enforcement multiplies insert cost (each insert re-reads
overlapping key ranges) and the gap grows as the table accumulates files.
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

from repro import Schema, Warehouse

from benchmarks.support import bench_config, print_series, run_once

BATCHES = 20
ROWS_PER_BATCH = 2_000


def run_inserts(enforce: bool):
    dw = Warehouse(config=bench_config(), auto_optimize=False)
    session = dw.session()
    session.create_table(
        "t",
        Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
        unique_column="id" if enforce else None,
    )
    rng = np.random.default_rng(5)
    # Keys interleave across the whole domain (as with hash-distributed or
    # externally-generated identifiers): every insert's key range overlaps
    # every existing file, so zone maps cannot prune the duplicate check.
    all_keys = rng.permutation(BATCHES * ROWS_PER_BATCH).astype(np.int64)
    before = dw.store.meter.bytes_read
    start = dw.clock.now
    for b in range(BATCHES):
        keys = all_keys[b * ROWS_PER_BATCH : (b + 1) * ROWS_PER_BATCH]
        session.insert("t", {"id": keys, "v": np.zeros(ROWS_PER_BATCH)})
    elapsed = dw.clock.now - start
    return elapsed, dw.store.meter.bytes_read - before


def test_ablation_unique_constraints(benchmark):
    results = {}

    def workload():
        results["off"] = run_inserts(False)
        results["on"] = run_inserts(True)
        return results

    run_once(benchmark, workload)

    print_series(
        "Ablation: unique-key enforcement cost on inserts",
        ["enforcement", "insert_stream_s", "bytes_read_for_checks"],
        [
            (mode, f"{results[mode][0]:.2f}", results[mode][1])
            for mode in ("off", "on")
        ],
    )

    # The paper's claim: a severe impact on inserts — both elapsed time and
    # a read-amplification term that grows with table size (the checks
    # re-read every overlapping file on every insert).
    assert results["on"][0] > results["off"][0] * 1.15
    assert results["on"][1] > 10 * results["off"][1] + 1_000_000

    benchmark.extra_info["bytes_read"] = {
        mode: results[mode][1] for mode in results
    }


if __name__ == "__main__":
    from benchmarks.support import bench_main

    bench_main(test_ablation_unique_constraints)
