#!/usr/bin/env python3
"""Alternating parent/change pairs of polaris-bench workloads.

    python scripts/bench_pairs.py PARENT_DIR --workload tpch_power --pairs 10

``PARENT_DIR`` is a checkout of the parent commit (``git clone`` it; the
benchmark imports the tree it runs in).  ``--workload`` names one
workload, a comma-separated list, or ``all`` (every workload of
BENCHMARK.json); several run one after the other, never at once.  Pair
``i`` runs seed ``SEED + i`` once in each tree — the parent first on even
pairs, this working tree first on odd ones, so drift of the machine
cancels — appending the results to ``A.jsonl`` (parent) and ``B.jsonl``
(change) under ``--out``.  It then prints, per workload and end-to-end
metric, in how many pairs the change read better than the parent, for
each end-to-end metric that repeats exactly per seed on how many seeds
the two trees are identical, and the workload's rows of ``python -m
benchmarks.e2e compare`` (medians, spreads and bounds).  It exits 1 if
any metric of any workload regressed past its bound.  A gain may be
claimed when the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile spread.

    python scripts/bench_pairs.py PARENT_DIR --workload all --traced

is the other half of the method: per workload, one ``--trace 1`` run of
seed ``SEED`` (default 100) in each tree, printed side by side — self time
per layer, then every per-layer metric — exiting 1 if any per-layer metric
counted in ``count``, ``B`` or ``sim-s`` differs on any workload, since
those repeat exactly per seed and a change that claims only speed must not
move them.

    python scripts/bench_pairs.py PARENT_DIR --workload all --traced \
        --expect-differ sqldb.scan_calls

names per-layer metrics the change is meant to move (comma-separated, or
the flag repeated).  Each named metric is printed again as parent ->
change with its percent delta, and the run exits 1 if any *other* count /
B / sim-s metric differs or if a named one does *not* differ, on any
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

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


def traced_pair(
    parent_dir: str, workload: str, seed: int, out: str, expected: List[str]
) -> int:
    """One traced run per tree; 1 if an exactly-repeating metric not in
    ``expected`` differs, or a metric in ``expected`` does not."""
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
        if differs and name not in expected:
            moved.append(name)
        flag = "  DIFFERS" if differs else ""
        print(f"  {name:<38} {a:>14.4f} {b:>14.4f} {entry['unit']}{flag}")
    still = []
    if expected:
        print("expected to differ: parent -> change")
    for name in expected:
        a, b = parent["metrics"][name]["value"], change["metrics"][name]["value"]
        delta = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name:<38} {a:>14.4f} -> {b:<14.4f} {delta}")
        if a == b:
            still.append(name)
    print(
        f"\n{workload}: exactly-repeating metrics ({', '.join(EXACT_UNITS)}): "
        + (f"{len(moved)} differ: {', '.join(moved)}" if moved else "all equal")
        + (f"; expected to differ but equal: {', '.join(still)}" if still else "")
        + "\n"
    )
    return int(bool(moved or still))


def paired_runs(parent_dir: str, workload: str, pairs: int, seed: int, out: str) -> int:
    """``pairs`` alternating pairs of one workload; 1 if a metric regressed."""
    sinks = {
        parent_dir: os.path.join(out, "A.jsonl"),
        REPO: os.path.join(out, "B.jsonl"),
    }
    for pair in range(pairs):
        order = list(sinks) if pair % 2 == 0 else list(sinks)[::-1]
        for tree in order:
            run_once(
                tree, workload, seed + pair, "--trace", "0", "--append", sinks[tree]
            )
        print(f"{workload} pair {pair + 1}/{pairs} (seed {seed + pair}) done", flush=True)

    parent, change = (load_set(sink) for sink in sinks.values())
    print(f"\n{workload}: pairs the change wins (ties count for neither)")
    for entry in load_spec()["end_to_end"]:
        key, sign = (workload, entry["name"]), 1 if entry["better"] == "higher" else -1
        a, b = parent.get(key, {}), change.get(key, {})
        gains = [sign * (b[s] - a[s]) for s in sorted(set(a) & set(b))]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        print(f"  {entry['name']:<16} wins {wins:>2}  losses {losses:>2}  of {len(gains)}")
    # ``compare`` pools the seeds, so it can call a metric "unresolved"
    # that is bit-equal on every seed; say per seed what it cannot.
    print(f"\n{workload}: exactly-repeating metrics, parent vs change")
    for name in REPEATING_METRICS:
        a, b = parent.get((workload, name), {}), change.get((workload, name), {})
        seeds = sorted(set(a) & set(b))
        same = sum(a[s] == b[s] for s in seeds)
        print(f"  {name:<16} identical per seed: {same} of {len(seeds)}")
    print()
    # ``compare`` lists every workload of BENCHMARK.json; the ones not run
    # into these files only say "missing", so show this workload's rows.
    report = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "compare", *sinks.values()],
        cwd=REPO, stdout=subprocess.PIPE, text=True,
    ).stdout.splitlines()
    rows = [line for line in report if line.startswith(workload)]
    print("\n".join(report[:1] + rows) + "\n")
    return int(any(line.endswith("regressed") for line in rows))


def chosen_workloads(parser: argparse.ArgumentParser, value: str) -> List[str]:
    """The workloads ``--workload`` names, in the order given."""
    known = [entry["name"] for entry in load_spec()["workloads"]]
    if value == "all":
        return known
    chosen = [name for name in value.split(",") if name]
    unknown = [name for name in chosen if name not in known]
    if unknown or not chosen:
        parser.error(
            f"unknown workload {', '.join(unknown) or repr(value)}; "
            f"choose from {', '.join(known)} or all"
        )
    return chosen


def expected_metrics(
    parser: argparse.ArgumentParser, values: List[str], traced: bool
) -> List[str]:
    """The per-layer metrics ``--expect-differ`` names, in the order given."""
    names = [name for value in values for name in value.split(",") if name]
    if names and not traced:
        parser.error("--expect-differ needs --traced")
    known = {entry["name"] for entry in load_spec()["per_layer"]}
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown per-layer metric {', '.join(unknown)}")
    return list(dict.fromkeys(names))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", help="checkout of the parent commit")
    parser.add_argument(
        "--workload", required=True,
        help="a workload, a comma-separated list of them, or all",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of pair 0")
    parser.add_argument(
        "--traced", action="store_true",
        help="instead of the pairs: one --trace 1 run of SEED per tree and "
        "workload, side by side; exit 1 if a count / B / sim-s metric differs",
    )
    parser.add_argument(
        "--expect-differ", action="append", default=[], metavar="NAME[,NAME]",
        help="with --traced: per-layer metrics the change is meant to move; "
        "exit 1 if one of them does not differ (or another one does)",
    )
    parser.add_argument(
        "--out", default=os.path.join(REPO, "bench_pairs"),
        help="directory of A.jsonl / B.jsonl (appended to, so runs accumulate)",
    )
    args = parser.parse_args()
    workloads = chosen_workloads(parser, args.workload)
    expected = expected_metrics(parser, args.expect_differ, args.traced)
    parent_dir = os.path.abspath(args.parent_dir)
    os.makedirs(args.out, exist_ok=True)
    failed = []
    for workload in workloads:
        if args.traced:
            status = traced_pair(
                parent_dir, workload, args.seed, args.out, expected
            )
        else:
            status = paired_runs(parent_dir, workload, args.pairs, args.seed, args.out)
        if status:
            failed.append(workload)
    if len(workloads) > 1:
        verdict = "differ" if args.traced else "regressed"
        print(f"{verdict}: {', '.join(failed)}" if failed else f"none {verdict}")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
