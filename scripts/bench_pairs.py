#!/usr/bin/env python3
"""Alternating parent/change pairs of one polaris-bench workload.

    python scripts/bench_pairs.py PARENT_DIR --workload tpch_power --pairs 10

``PARENT_DIR`` is a checkout of the parent commit (``git clone`` it; the
benchmark imports the tree it runs in).  Pair ``i`` runs seed ``SEED + i``
once in each tree — the parent first on even pairs, this working tree
first on odd ones, so drift of the machine cancels — appending the
results to ``A.jsonl`` (parent) and ``B.jsonl`` (change) under ``--out``.
It then prints, per end-to-end metric, in how many pairs the change read
better than the parent, for each end-to-end metric that repeats exactly
per seed on how many seeds the two trees are identical, and hands both
files to ``python -m
benchmarks.e2e compare`` for the medians, spreads and bounds, exiting 1
if any metric of the workload regressed past its bound.  A gain may be
claimed when the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile spread.

    python scripts/bench_pairs.py PARENT_DIR --workload tpch_power --traced

is the other half of the method: one ``--trace 1`` run of seed ``SEED``
(default 100) in each tree, printed side by side — self time per layer,
then every per-layer metric — exiting 1 if any per-layer metric counted in
``count``, ``B`` or ``sim-s`` differs, since those repeat exactly per seed
and a change that claims only speed must not move them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from benchmarks.e2e.compare import load_set  # noqa: E402
from benchmarks.e2e.harness import load_spec  # noqa: E402


#: Units of the per-layer metrics that repeat exactly for one seed.
EXACT_UNITS = ("count", "B", "sim-s")

#: End-to-end metrics that repeat exactly for one seed.
REPEATING_METRICS = ("sim_s_per_op", "sim_p95_s", "write_amp", "space_amp")


def run_once(tree: str, workload: str, seed: int, *options: str) -> None:
    """One benchmark run inside ``tree`` with the given ``run`` options."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "run", "--workload", workload,
        "--seed", str(seed), *options,
    ]
    subprocess.run(command, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def traced_pair(parent_dir: str, workload: str, seed: int, out: str) -> int:
    """One traced run per tree; 1 if an exactly-repeating metric differs."""
    results = []
    for label, tree in (("parent", parent_dir), ("change", REPO)):
        directory = os.path.join(out, f"traced-{label}")
        run_once(tree, workload, seed, "--trace", "1", "--out", directory)
        with open(
            os.path.join(directory, f"{workload}-trace1.json"), encoding="utf-8"
        ) as handle:
            results.append(json.load(handle))
    parent, change = results
    print(f"{workload} seed {seed}, traced: parent | change")
    print("self ms per round, by layer")
    layers = parent["layer_self_ms_per_round"], change["layer_self_ms_per_round"]
    for layer in sorted(set(layers[0]) | set(layers[1])):
        a, b = (side.get(layer, 0.0) for side in layers)
        print(f"  {layer:<38} {a:>14.2f} {b:>14.2f}")
    print("per-layer metrics")
    moved = []
    for name, entry in parent["metrics"].items():
        a, b = entry["value"], change["metrics"][name]["value"]
        differs = entry["unit"] in EXACT_UNITS and a != b
        if differs:
            moved.append(name)
        flag = "  DIFFERS" if differs else ""
        print(f"  {name:<38} {a:>14.4f} {b:>14.4f} {entry['unit']}{flag}")
    print(
        f"\nexactly-repeating metrics ({', '.join(EXACT_UNITS)}): "
        + (f"{len(moved)} differ: {', '.join(moved)}" if moved else "all equal")
    )
    return int(bool(moved))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of pair 0")
    parser.add_argument(
        "--traced", action="store_true",
        help="instead of the pairs: one --trace 1 run of SEED per tree, "
        "side by side; exit 1 if a count / B / sim-s metric differs",
    )
    parser.add_argument(
        "--out", default=os.path.join(REPO, "bench_pairs"),
        help="directory of A.jsonl / B.jsonl (appended to, so runs accumulate)",
    )
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if args.traced:
        return traced_pair(
            os.path.abspath(args.parent_dir), args.workload, args.seed, args.out
        )
    sinks = {
        os.path.abspath(args.parent_dir): os.path.join(args.out, "A.jsonl"),
        REPO: os.path.join(args.out, "B.jsonl"),
    }
    for pair in range(args.pairs):
        order = list(sinks) if pair % 2 == 0 else list(sinks)[::-1]
        for tree in order:
            run_once(
                tree, args.workload, args.seed + pair,
                "--trace", "0", "--append", sinks[tree],
            )
        print(f"pair {pair + 1}/{args.pairs} (seed {args.seed + pair}) done", flush=True)

    parent, change = (load_set(sink) for sink in sinks.values())
    print(f"\n{args.workload}: pairs the change wins (ties count for neither)")
    for entry in load_spec()["end_to_end"]:
        key, sign = (args.workload, entry["name"]), 1 if entry["better"] == "higher" else -1
        a, b = parent.get(key, {}), change.get(key, {})
        gains = [sign * (b[seed] - a[seed]) for seed in sorted(set(a) & set(b))]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        print(f"  {entry['name']:<16} wins {wins:>2}  losses {losses:>2}  of {len(gains)}")
    # ``compare`` pools the seeds, so it can call a metric "unresolved"
    # that is bit-equal on every seed; say per seed what it cannot.
    print(f"\n{args.workload}: exactly-repeating metrics, parent vs change")
    for name in REPEATING_METRICS:
        a, b = parent.get((args.workload, name), {}), change.get((args.workload, name), {})
        seeds = sorted(set(a) & set(b))
        same = sum(a[seed] == b[seed] for seed in seeds)
        print(f"  {name:<16} identical per seed: {same} of {len(seeds)}")
    print()
    # ``compare`` lists every workload of BENCHMARK.json; the ones not run
    # into these files only say "missing", so show this workload's rows.
    report = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "compare", *sinks.values()],
        cwd=REPO, stdout=subprocess.PIPE, text=True,
    ).stdout.splitlines()
    rows = [line for line in report if line.startswith(args.workload)]
    print("\n".join(report[:1] + rows))
    return int(any(line.endswith("regressed") for line in rows))


if __name__ == "__main__":
    sys.exit(main())
