"""Command line of polaris-bench: ``run``, ``layers`` and ``compare``."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

from benchmarks.e2e import compare, harness, layers
from benchmarks.e2e.workloads import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="set up and drive one workload, check answers, print metrics"
    )
    run.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="one workload, in this process; default: all four, each run "
        "alone in a fresh subprocess",
    )
    run.add_argument("--seed", type=int, default=0, help="all inputs derive from it")
    run.add_argument(
        "--seeds", type=int, default=1,
        help="with no --workload: run seeds SEED .. SEED+SEEDS-1 of each workload",
    )
    run.add_argument(
        "--append", default=None, metavar="FILE",
        help="append each full result as one JSON line (input of `compare`)",
    )
    run.add_argument(
        "--seconds", type=float, default=None,
        help="how long to measure (default: run_seconds of BENCHMARK.json)",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="smoke mode: about 1/20 of the operations, two rounds, no time limit",
    )
    run.add_argument(
        "--out", default=harness.DEFAULT_OUT,
        help="directory for the result JSON and the Chrome trace",
    )

    commands.add_parser("layers", help="the unit-cost micro pass (min of 7)")

    diff = commands.add_parser(
        "compare", help="compare two sets of results against the bounds"
    )
    diff.add_argument("a", help="JSON-lines file of `run` results (see README)")
    diff.add_argument("b")
    diff.add_argument(
        "--agree", action="store_true",
        help="A/A mode: both sets are the same commit and must agree",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "layers":
        layers.print_unit_costs()
        return 0
    if args.command == "compare":
        return compare.main(args.a, args.b, args.agree)
    if args.workload is None:
        return _run_all(args)
    seconds = args.seconds
    if seconds is None:
        seconds = float(harness.load_spec()["run_seconds"])
    result = harness.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.quick, args.out
    )
    harness.print_result(result)
    if args.append is not None:
        with open(args.append, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload x seed, one fresh subprocess each, one at a time."""
    status = 0
    for seed in range(args.seed, args.seed + args.seeds):
        for workload in (w["name"] for w in harness.load_spec()["workloads"]):
            command = [
                sys.executable, "-m", "benchmarks.e2e", "run",
                "--workload", workload, "--seed", str(seed),
                "--trace", str(args.trace), "--out", args.out,
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            if args.append is not None:
                command += ["--append", args.append]
            status = max(status, subprocess.run(
                command, check=False, cwd=os.path.dirname(harness.BENCHMARK_JSON)
            ).returncode)
    return status
