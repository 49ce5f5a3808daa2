"""Command-line front end: ``python -m repro.chaos``.

Exit status is 0 when every invariant held and 1 when a crash site
failed to fire or a recovery left a state the driver's model does not
allow, so CI can gate on it directly.  The fault soak is the driver's
storage-fault case, ``tests/test_chaos_sweep.py::TestLongevity``.

Usage::

    python -m repro.chaos --sweep [--seed N]          # crash every site, sampled
    python -m repro.chaos --sweep --double-crash      # crash recovery too
    python -m repro.chaos --site fe.commit.after_sqldb_commit
    python -m repro.chaos --corruption                # rot every blob kind
    python -m repro.chaos --list                      # crashpoint catalogue
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.chaos.crashpoints import CRASHPOINTS
from repro.chaos.harness import RECOVERY_SITES, run_crash_sweep


def _run_list() -> int:
    """Print the crashpoint catalogue, one ``name: description`` per line."""
    width = max(len(name) for name in CRASHPOINTS)
    for name in sorted(CRASHPOINTS):
        print(f"{name:<{width}}  {CRASHPOINTS[name]}")
    return 0


def _run_sweep(seed: int, sites: Optional[List[str]], double_crash: bool) -> int:
    """Run the crash sweep and report one line per crash."""
    if sites:
        unknown = sorted(set(sites) - set(CRASHPOINTS))
        recovery_only = sorted(set(sites) & set(RECOVERY_SITES))
        if unknown:
            # The full catalogue, right here: a typo'd site name should
            # not require a second invocation to see what was meant.
            print(
                f"error: unknown crashpoint(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            print("registered crashpoints:", file=sys.stderr)
            for name in sorted(CRASHPOINTS):
                print(f"  {name}", file=sys.stderr)
            return 2
        if recovery_only:
            print(
                f"error: {', '.join(recovery_only)} only fire(s) inside a "
                "recovery pass; use --double-crash, which crashes recovery "
                "at every recovery.* site",
                file=sys.stderr,
            )
            return 2
    result = run_crash_sweep(seed=seed, sites=sites, double_crash=double_crash)
    for line in result.summary():
        print(line)
    failures = result.failures
    if failures:
        print(f"\n{len(failures)} crash(es) failed:", file=sys.stderr)
        for site in failures:
            for problem in site.problems:
                print(f"  {site.label}: {problem}", file=sys.stderr)
        return 1
    print(f"\n{len(result.sites)} crash(es) recovered cleanly")
    return 0


def _run_corruption(seed: int) -> int:
    """Run the corruption sweep and report one line per scenario."""
    from repro.chaos.corruption import run_corruption_sweep

    result = run_corruption_sweep(seed=seed)
    for line in result.summary():
        print(line)
    failures = result.failures
    if failures or result.problems:
        print(
            f"\n{len(failures)} scenario(s) failed, "
            f"{len(result.problems)} deployment problem(s):",
            file=sys.stderr,
        )
        for scenario in failures:
            for problem in scenario.problems:
                print(
                    f"  {scenario.mode}:{scenario.blob_kind}:"
                    f"{scenario.fault}: {problem}",
                    file=sys.stderr,
                )
        for problem in result.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"\n{len(result.scenarios)} corruption scenario(s) detected, "
        "quarantined, and repaired-or-RED"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic crash injection and recovery.",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="crash a seeded sample of crashpoint hits covering every site; verify recovery",
    )
    parser.add_argument(
        "--site",
        action="append",
        metavar="NAME",
        help="restrict the sweep to this crashpoint (repeatable)",
    )
    parser.add_argument(
        "--double-crash",
        action="store_true",
        help="also crash recovery itself at every recovery.* site per run",
    )
    parser.add_argument(
        "--corruption",
        action="store_true",
        help="run the corruption sweep (every fault class x blob kind)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the crashpoint catalogue and exit",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="deterministic seed (default 0)"
    )
    args = parser.parse_args(argv)
    if args.list:
        return _run_list()
    if args.corruption:
        return _run_corruption(args.seed)
    if args.sweep or args.site:
        return _run_sweep(args.seed, args.site, args.double_crash)
    parser.print_help(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
