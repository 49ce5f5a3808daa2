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
import gc
import json
from typing import Iterable, List, Sequence

from repro import PolarisConfig, Warehouse
from repro.telemetry import combined_chrome_trace, instances, tracing_instances
from repro.telemetry.introspection import instances as introspector_instances

#: Set by :func:`bench_main` when ``--trace`` / ``--metrics`` are given;
#: :func:`bench_config` reads it so every warehouse a benchmark creates is
#: instrumented without the benchmark knowing about telemetry.
_SCRIPT_TELEMETRY = {"trace": False, "metrics": False}


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
    if _SCRIPT_TELEMETRY["metrics"]:
        config.telemetry.metrics = True
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
    # The report's byte/request totals come from the metrics registry, so
    # --report implies metering (printing still requires --metrics).
    _SCRIPT_TELEMETRY["metrics"] = args.metrics or args.report

    instrumented = args.trace is not None or _SCRIPT_TELEMETRY["metrics"]
    if instrumented:
        # The trace/metrics/report outputs enumerate weakly-registered
        # telemetry and introspector instances after the workloads ran.
        # Warehouses sit in reference cycles, so they die at whatever
        # moment the cyclic collector happens to run — which would make
        # the enumeration (which warehouses get a report, a trace group)
        # timing-dependent.  Hold collection until every output is taken.
        gc.disable()
    try:
        traced_before = len(tracing_instances())
        metered_before = len(instances())
        for fn in bench_fns:
            intro_before = len(introspector_instances())
            fn(_ScriptBenchmark())
            if args.report:
                for intro in introspector_instances()[intro_before:]:
                    print()
                    print(intro.report())

        if args.trace is not None:
            traced = tracing_instances()[traced_before:]
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
            for i, tel in enumerate(instances()[metered_before:], start=1):
                snapshot = tel.metrics.snapshot()
                if not snapshot:
                    continue
                print(f"\n=== metrics (warehouse {i}) ===")
                for key, value in sorted(snapshot.items()):
                    print(f"{key} = {value}")
    finally:
        if instrumented:
            gc.enable()
            gc.collect()
