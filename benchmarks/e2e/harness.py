"""Drives one workload for ``--seconds`` and turns its rounds into metrics.

A run is: set the workload up (three times, keeping the median — or once
per round where rounds need fresh state), one untimed warm-up round, then
timed rounds of fixed work, each followed by timed restarts, until
``--seconds`` have passed (at least :data:`MIN_ROUNDS`).  Wall-clock
metrics use every round, each scaled to the reference speed by the kernel
samples taken while it ran (:mod:`benchmarks.e2e.calibration`), and are
medians over rounds.  Simulated-clock metrics, amplification ratios and
counts use only the first :data:`MIN_ROUNDS` rounds, so they repeat
exactly for a seed however many rounds the machine fits in.  With
``--trace 1`` a short untraced pass is followed by a traced pass over the
same rounds and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from benchmarks.e2e import calibration, layers
from benchmarks.e2e.trace import Tracer, self_by_layer, self_of
from benchmarks.e2e.workloads import WORKLOADS
from benchmarks.e2e.workloads.base import (
    RoundResult,
    Workload,
    add_recovery_counts,
)

#: Rounds every timed pass runs at least, and the prefix the exact metrics
#: are computed over.
MIN_ROUNDS = 5
#: The same for the two passes of a traced run, which share ``--seconds``.
MIN_ROUNDS_TRACED = 3
#: Operations an untraced pass times at least, so that ten lie beyond p95
#: even when a slow host fits few rounds into ``--seconds``.
MIN_SAMPLES = 220
#: Set-ups per run on workloads that keep one state for all rounds.
SETUPS = 3
#: Reference-kernel samples taken before and again after each set-up.
KERNEL_SAMPLES_PER_SETUP = 3

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_spec() -> Dict[str, Any]:
    """The benchmark's contract: workloads, metric names, units, bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def at_reference_speed(kernel_s: List[float]) -> float:
    """Factor that turns wall seconds measured while the reference kernel
    took ``kernel_s`` into seconds at the reference speed."""
    return calibration.REFERENCE_S / statistics.median(kernel_s)


@dataclass
class Pass:
    """Everything one timed pass over a workload produced."""

    rounds: List[RoundResult]
    #: How many leading rounds the exactly-repeating metrics may use.
    exact: int
    #: Calibrated wall seconds of each set-up.
    setup_s: List[float]
    #: ``chaos.*`` counts of the idle restarts during the exact rounds.
    idle_chaos: Dict[str, float]
    #: Tracer aggregates captured at the end of the exact rounds.
    exact_trace: Optional[Dict[str, Dict[str, float]]] = None
    #: span name -> calibrated self seconds, summed over the traced rounds.
    self_s: Dict[str, float] = field(default_factory=dict)

    @property
    def exact_rounds(self) -> List[RoundResult]:
        """The rounds the exactly-repeating metrics are computed over."""
        return self.rounds[:self.exact]

    def over_rounds(self, per_round: Callable[[RoundResult], float]) -> float:
        """Median over rounds of a per-round wall-clock number, each round
        scaled to the reference speed by its own kernel samples."""
        return statistics.median(
            per_round(r) * at_reference_speed(r.kernel_s) for r in self.rounds
        )

    def restart_ms(self, which: int) -> float:
        """Median over rounds of the round's median restart (``which`` 0)
        or recover() alone (1), at the reference speed."""
        return statistics.median(
            statistics.median(episode[which] for episode in r.restarts)
            * at_reference_speed(r.restart_kernel_s or r.kernel_s)
            for r in self.rounds
        )


def measure(
    workload: Workload,
    seconds: float,
    min_rounds: int,
    tracer: Optional[Tracer] = None,
    min_samples: int = 0,
) -> Pass:
    """Set up, warm up, then timed rounds, each followed by its restarts."""
    setup_s: List[float] = []
    workload.tracer = tracer
    if tracer is not None:
        tracer.paused = True

    def timed_setup() -> Any:
        kernel_s = [calibration.kernel() for _ in range(KERNEL_SAMPLES_PER_SETUP)]
        start = time.perf_counter()
        state = workload.setup()
        wall = time.perf_counter() - start
        kernel_s += [calibration.kernel() for _ in range(KERNEL_SAMPLES_PER_SETUP)]
        setup_s.append(wall * at_reference_speed(kernel_s))
        return state

    # Where one state serves all rounds, the set-up before last becomes
    # the restart victim, so restarts never cool the caches being timed.
    state = victim = None
    for _ in range(1 if workload.fresh_per_round else 2 if workload.quick else SETUPS):
        victim = state
        state = None
        gc.collect()
        state = timed_setup()
    workload.run_round(state, -1)

    rounds: List[RoundResult] = []
    idle_chaos: Dict[str, float] = {}
    exact_trace = None
    self_s: Dict[str, float] = defaultdict(float)
    samples = 0
    started = time.perf_counter()
    while (
        len(rounds) < min_rounds
        or samples < min_samples
        or time.perf_counter() - started < seconds
    ):
        if workload.fresh_per_round:
            state = victim = timed_setup()
        if tracer is not None:
            before = dict(tracer.self_s)
            tracer.paused = False
        result = workload.run_round(state, len(rounds))
        if tracer is not None:
            tracer.paused = True
            factor = at_reference_speed(result.kernel_s)
            for name, total in tracer.self_s.items():
                self_s[name] += (total - before.get(name, 0.0)) * factor
        rounds.append(result)
        samples += len(result.op_wall_s)
        for _ in range(workload.idle_restarts_per_round):
            result.restart_kernel_s.append(calibration.kernel())
            restart_ms, recover_ms, report = workload.restart(victim)
            result.restarts.append((restart_ms, recover_ms))
            result.restart_kernel_s.append(calibration.kernel())
            if len(rounds) <= min_rounds:
                add_recovery_counts(idle_chaos, report)
        if tracer is not None and len(rounds) == min_rounds:
            exact_trace = {
                "calls": dict(tracer.calls),
                "errors": dict(tracer.errors),
                "counters": dict(tracer.counters),
            }
    workload.final_check()
    workload.tracer = None
    return Pass(rounds, min_rounds, setup_s, idle_chaos, exact_trace, dict(self_s))


# -- metrics -------------------------------------------------------------------


def end_to_end_metrics(run: Pass) -> Dict[str, float]:
    """The user-visible numbers of one untraced pass.

    Wall-clock numbers are taken per round, scaled to the reference speed
    (see :mod:`benchmarks.e2e.calibration`) and reported as the median
    over rounds.
    """
    exact = run.exact_rounds
    exact_completed = sum(len(r.op_wall_s) for r in exact)
    return {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": 1.0 / run.over_rounds(lambda r: r.wall_s / len(r.op_wall_s)),
        "op_p50_ms": run.over_rounds(lambda r: percentile(r.op_wall_s, 0.50)) * 1e3,
        "op_p95_ms": run.over_rounds(lambda r: percentile(r.op_wall_s, 0.95)) * 1e3,
        "cpu_ms_per_op": run.over_rounds(lambda r: r.cpu_s / len(r.op_wall_s)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s_per_op": sum(r.sim_charged_s for r in exact) / exact_completed,
        "sim_p95_s": percentile(
            [s for r in exact for s in r.op_sim_latency_s], 0.95
        ),
        "write_amp": statistics.fmean(r.write_amp for r in exact),
        "space_amp": statistics.fmean(r.space_amp for r in exact),
        "restart_ms": run.restart_ms(0),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    untraced: Pass, traced: Pass, tracer: Tracer, unit: Dict[str, float]
) -> Dict[str, float]:
    """Per-round layer numbers of a traced pass.

    Self times are means over all traced rounds; counts are means over the
    exact prefix, so they repeat for a seed.
    """
    rounds = len(traced.rounds)
    exact = traced.exact_rounds
    prefix = traced.exact_trace

    def self_ms(*prefixes: str) -> float:
        """Mean calibrated self time per round of the spans so prefixed."""
        return self_of(traced.self_s, *prefixes) / rounds * 1e3

    def counted(name: str) -> float:
        """Mean per exact round of a count from the rounds themselves."""
        return sum(r.counters.get(name, 0.0) for r in exact) / len(exact)

    def hooked(kind: str, name: str) -> float:
        """Mean per exact round of a count taken at the trace wrappers."""
        return prefix[kind].get(name, 0.0) / len(exact)

    files_scanned = hooked("calls", "fe.scan.open")
    files_pruned = hooked("counters", "fe.files_pruned")
    groups_pruned = hooked("counters", "pagefile.rowgroups_pruned")
    groups_scanned = hooked("counters", "pagefile.rowgroups_scanned")
    traced_round = traced.over_rounds(lambda r: r.wall_s)
    untraced_round = untraced.over_rounds(lambda r: r.wall_s)
    metrics = {
        "storage.get_calls": counted("storage.get_calls"),
        "storage.put_calls": counted("storage.put_calls"),
        "storage.get_bytes": counted("storage.get_bytes"),
        "storage.put_bytes": counted("storage.put_bytes"),
        "storage.self_ms": self_ms("storage"),
        "storage.retries": hooked("calls", "telemetry.retry_attempt"),
        "pagefile.read_self_ms": self_ms("pagefile.read"),
        "pagefile.write_self_ms": self_ms("pagefile.write"),
        "pagefile.rows_decoded": hooked("counters", "pagefile.rows_decoded"),
        "pagefile.bytes_decoded": hooked("counters", "pagefile.bytes_decoded"),
        "pagefile.rowgroups_pruned_frac": _ratio(
            groups_pruned, groups_pruned + groups_scanned
        ),
        "lst.cache_hit_frac": _ratio(
            counted("lst.cache_hits"), counted("lst.cache_lookups")
        ),
        "lst.manifests_replayed": counted("lst.manifests_replayed"),
        "lst.replay_self_ms": self_ms("lst.replay"),
        "lst.checkpoint_loads": hooked("calls", "lst.replay.checkpoint"),
        "sqldb.commits": counted("sqldb.commits"),
        "sqldb.commit_self_ms": self_ms("sqldb.commit"),
        "sqldb.scan_calls": hooked("calls", "sqldb.scan.open"),
        "sqldb.scan_self_ms": self_ms("sqldb.scan"),
        "sqldb.validation_aborts": hooked("errors", "sqldb.commit.validate"),
        "sqldb.commit_lock_hold_sim_s": counted("sqldb.commit_lock_hold_sim_s"),
        "sqldb.commit_lock_wait_sim_s": counted("sqldb.commit_lock_wait_sim_s"),
        "fe.scan_table_self_ms": self_ms("fe.scan"),
        "fe.files_scanned": files_scanned,
        "fe.files_pruned_frac": _ratio(files_pruned, files_pruned + files_scanned),
        "fe.write_path_self_ms": self_ms("fe.write"),
        "fe.commit_self_ms": self_ms("fe.commit"),
        "fe.abort_frac": _ratio(
            counted("fe.commit_aborts"), counted("fe.commit_attempts")
        ),
        "fe.client_retries": counted("fe.client_retries"),
        "engine.execute_plan_self_ms": self_ms("engine.execute_plan"),
        "engine.join_self_ms": self_ms("engine.join"),
        "engine.aggregate_self_ms": self_ms("engine.aggregate"),
        "engine.filter_project_self_ms": self_ms("engine.filter", "engine.project"),
        "engine.sort_self_ms": self_ms("engine.sort"),
        "engine.rows_in": hooked("counters", "engine.rows_in"),
        "engine.rows_out": hooked("counters", "engine.rows_out"),
        "optimizer.rewrite_self_ms": self_ms("optimizer.rewrite"),
        "optimizer.prune_self_ms": self_ms("optimizer.prune"),
        "optimizer.plans_changed_frac": _ratio(
            hooked("counters", "optimizer.plans_changed"),
            hooked("calls", "optimizer.rewrite"),
        ),
        "optimizer.index_files_pruned": hooked(
            "counters", "optimizer.index_files_pruned"
        ),
        "sql.parse_self_ms": self_ms("sql.lex", "sql.parse"),
        "sql.bind_self_ms": self_ms("sql.bind"),
        "sql.statements": hooked("calls", "sql.execute"),
        "dcp.execute_self_ms": self_ms("dcp.execute"),
        "dcp.tasks": hooked("counters", "dcp.tasks"),
        "dcp.task_sim_s": hooked("counters", "dcp.task_sim_s"),
        "sto.compaction_runs": counted("sto.compaction_runs"),
        "sto.compaction_self_ms": self_ms("sto.compaction"),
        "sto.compaction_bytes_rewritten": hooked(
            "counters", "sto.compaction_bytes_rewritten"
        ),
        "sto.checkpoint_runs": counted("sto.checkpoint_runs"),
        "sto.checkpoint_self_ms": self_ms("sto.checkpoint"),
        "sto.gc_self_ms": self_ms("sto.gc"),
        "sto.gc_blobs_deleted": counted("sto.gc_blobs_deleted"),
        "service.submit_self_ms": self_ms("service.submit"),
        "service.dispatch_self_ms": self_ms("service.dispatch"),
        "service.queue_wait_sim_s": counted("service.queue_wait_sim_s"),
        "service.shed": counted("service.shed"),
        "service.timed_out": counted("service.timed_out"),
        "chaos.recover_ms": traced.restart_ms(1),
        "chaos.in_doubt_resolved": counted("chaos.in_doubt_resolved")
        + traced.idle_chaos.get("chaos.in_doubt_resolved", 0.0) / len(exact),
        "chaos.staged_blocks_discarded": counted("chaos.staged_blocks_discarded")
        + traced.idle_chaos.get("chaos.staged_blocks_discarded", 0.0) / len(exact),
        "telemetry.disabled_self_ms": self_ms("telemetry"),
        "trace.overhead_frac": traced_round / untraced_round - 1.0,
        "trace.unattributed_frac": _ratio(tracer.root_self_s, tracer.root_total_s),
    }
    metrics.update(unit)
    return metrics


# -- one invocation ------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    out_dir: Optional[str] = DEFAULT_OUT,
) -> Dict[str, Any]:
    """Run one workload; returns the result (see :func:`print_result`)."""
    spec = load_spec()
    workload = WORKLOADS[name](seed, quick)
    if quick:
        seconds = 0.0
    extras: Dict[str, Any] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    if not trace:
        run = measure(
            workload,
            seconds,
            min_rounds=2 if quick else MIN_ROUNDS,
            min_samples=0 if quick else MIN_SAMPLES,
        )
        metrics = end_to_end_metrics(run)
        declared = spec["end_to_end"]
        passes = [run]
        extras["samples"] = sum(len(r.op_wall_s) for r in run.rounds)
        extras["restart_episodes"] = sum(len(r.restarts) for r in run.rounds)
    else:
        min_rounds = 2 if quick else MIN_ROUNDS_TRACED
        untraced = measure(workload, seconds / 3.0, min_rounds)
        tracer = Tracer().install()
        try:
            traced = measure(workload, seconds * 2.0 / 3.0, min_rounds, tracer)
        finally:
            tracer.uninstall()
        unit = {
            key: value
            for key, (value, _) in layers.unit_costs(
                repeats=1 if quick else 3, quick=quick
            ).items()
        }
        metrics = per_layer_metrics(untraced, traced, tracer, unit)
        declared = spec["per_layer"]
        passes = [untraced, traced]
        extras["layer_self_ms_per_round"] = {
            layer: layer_s / len(traced.rounds) * 1e3
            for layer, layer_s in sorted(self_by_layer(traced.self_s).items())
        }
        if out_dir is not None:
            tracer.write_chrome_trace(os.path.join(out_dir, f"trace-{name}.json"))

    units = {entry["name"]: entry["unit"] for entry in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    kernel_s = [k for run in passes for r in run.rounds for k in r.kernel_s]
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "loop": workload.loop,
        "rounds": [len(run.rounds) for run in passes],
        # Wall-clock metrics are reported at the reference speed; this is
        # how fast the host actually was (1.0 = the reference box, quiet).
        "host_speed": at_reference_speed(kernel_s),
        "kernel_samples": len(kernel_s),
        "correct": not workload.problems,
        "problems": workload.problems[:20],
        "attempted": sum(r.attempted for run in passes for r in run.rounds),
        "failed": sum(r.failed for run in passes for r in run.rounds),
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
        **extras,
    }
    if out_dir is not None:
        path = os.path.join(out_dir, f"{name}-trace{int(trace)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    return result


def print_result(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"loop={result['loop']} rounds={result['rounds']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    print(
        f"# host_speed={result['host_speed']:.3f} of the reference "
        f"({result['kernel_samples']} kernel samples); wall-clock metrics "
        "are scaled to the reference speed"
    )
    for key in ("samples", "restart_episodes"):
        if key in result:
            print(f"# {key}={result[key]}")
    for layer, ms in result.get("layer_self_ms_per_round", {}).items():
        print(f"# self time per round  {layer:<10} {ms:12.3f} ms")
    for key, entry in result["metrics"].items():
        print(f"{key:<36} {entry['value']:>16.6f} {entry['unit']}")
    for problem in result["problems"]:
        print(f"WRONG ANSWER: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
