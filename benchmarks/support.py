"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark drives simulated workloads and reports *simulated* seconds
(the quantity the paper's figures plot), printed as the same rows/series
the paper shows.  pytest-benchmark wraps the driver for wall-time
accounting; every workload runs exactly once (``rounds=1``) because the
drivers are stateful.

Every benchmark module is also directly runnable as a script::

    python benchmarks/bench_fig07_ingestion_scaling.py --trace out.json

``--trace`` enables span tracing on every warehouse the benchmark creates
and writes one combined Chrome trace (load it at https://ui.perfetto.dev);
``--metrics`` prints the metrics-registry snapshot after the run;
``--report`` prints each warehouse's DMV-based health report (it writes
nothing; regression gating is polaris-bench, ``benchmarks/e2e``).
"""

from __future__ import annotations

import argparse
import json
from contextlib import nullcontext
from typing import Iterable, List, Sequence

from repro import PolarisConfig, Warehouse
from repro.fe.context import recording
from repro.telemetry import combined_chrome_trace

#: Set by :func:`bench_main` when ``--trace`` is given; :func:`bench_config`
#: reads it so every warehouse a benchmark creates is traced without the
#: benchmark knowing about telemetry.
_SCRIPT_TELEMETRY = {"trace": False}


def run_once(benchmark, fn):
    """Run a stateful workload exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def print_series(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print one figure's data series as an aligned table."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def bench_config(**overrides) -> PolarisConfig:
    """A configuration scaled for the micro benchmarks."""
    config = PolarisConfig()
    config.distributions = 8
    config.rows_per_cell = 20_000
    config.sto.min_healthy_rows_per_file = 300
    config.sto.max_deleted_fraction = 0.2
    config.sto.checkpoint_manifest_threshold = 10
    config.sto.poll_interval_s = 60.0
    if _SCRIPT_TELEMETRY["trace"]:
        config.telemetry.enabled = True
    for key, value in overrides.items():
        section, __, attr = key.partition("__")
        if attr:
            setattr(getattr(config, section), attr, value)
        else:
            setattr(config, section, value)
    return config


def fresh_warehouse(elastic: bool = True, separate_pools: bool = True,
                    auto_optimize: bool = True, **config_overrides) -> Warehouse:
    """A new deployment for one benchmark scenario."""
    return Warehouse(
        config=bench_config(**config_overrides),
        elastic=elastic,
        separate_pools=separate_pools,
        auto_optimize=auto_optimize,
    )


# -- script mode ---------------------------------------------------------------


class _ScriptBenchmark:
    """Stand-in for the pytest-benchmark fixture when run as a script."""

    def __init__(self) -> None:
        self.extra_info = {}

    def pedantic(self, fn, rounds=1, iterations=1, **kwargs):
        result = None
        for _ in range(rounds * iterations):
            result = fn()
        return result

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def bench_main(*bench_fns) -> None:
    """Script entry point for a benchmark module.

    Runs each ``bench_fn(benchmark)`` with a fake benchmark fixture, then
    honours ``--trace OUT`` (write one combined Chrome trace covering all
    warehouses the run created), ``--metrics`` (print the registries'
    snapshots) and ``--report`` (print every warehouse's health report).
    """
    parser = argparse.ArgumentParser(description=bench_fns[0].__doc__)
    parser.add_argument(
        "--trace",
        metavar="OUT",
        default=None,
        help="enable span tracing and write a combined Chrome trace JSON",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics-registry snapshot after the run",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print each warehouse's DMV-based health report",
    )
    args = parser.parse_args()
    if args.trace is not None:
        # Fail on an unwritable path now, not after the whole run.
        with open(args.trace, "w", encoding="utf-8"):
            pass
    _SCRIPT_TELEMETRY["trace"] = args.trace is not None

    instrumented = args.trace is not None or args.metrics or args.report
    # Only an instrumented run records the deployments it creates; the
    # recording holds them until every output below is taken.
    with recording() if instrumented else nullcontext([]) as contexts:
        for fn in bench_fns:
            first = len(contexts)
            fn(_ScriptBenchmark())
            if args.report:
                for context in contexts[first:]:
                    print()
                    print(context.introspection.report())

    if args.trace is not None:
        traced = [c.telemetry for c in contexts if c.telemetry.tracing]
        groups = [
            (f"run{i}:" if len(traced) > 1 else "", tel.spans)
            for i, tel in enumerate(traced, start=1)
        ]
        document = combined_chrome_trace(groups)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        spans = sum(len(g[1]) for g in groups)
        print(
            f"\nwrote {spans} spans to {args.trace} "
            "(load at ui.perfetto.dev)"
        )
    if args.metrics:
        for i, context in enumerate(contexts, start=1):
            snapshot = context.telemetry.metrics.snapshot()
            if not snapshot:
                continue
            print(f"\n=== metrics (warehouse {i}) ===")
            for key, value in sorted(snapshot.items()):
                print(f"{key} = {value}")
