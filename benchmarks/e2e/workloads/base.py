"""What every polaris-bench workload shares: config, timing, accounting.

A workload is a class with a seeded ``setup()`` that builds a warehouse
and a ``run_round(state, k)`` that performs one fixed unit of work against
it.  Round *k* does the same work in every run with the same seed, so
simulated-clock numbers and counts repeat exactly; only the number of
rounds that fit into ``--seconds`` depends on the machine.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import PolarisConfig, Warehouse
from repro.chaos import RecoveryManager

from benchmarks.e2e import calibration



def bench_config(seed: int) -> PolarisConfig:
    """Deployment config scaled so micro-scale tables still span several
    cells/files and the STO thresholds are reachable (the figure benches'
    sizing, with the workload seed as the deployment seed)."""
    config = PolarisConfig()
    config.seed = seed
    config.distributions = 8
    config.rows_per_cell = 20_000
    config.sto.min_healthy_rows_per_file = 300
    config.sto.max_deleted_fraction = 0.2
    config.sto.checkpoint_manifest_threshold = 10
    config.sto.poll_interval_s = 60.0
    return config


def user_bytes(batch: Dict[str, np.ndarray]) -> int:
    """Logical size of the rows a user handed in: numeric columns at their
    array width, strings at their character count."""
    total = 0
    for values in batch.values():
        if values.dtype == object:
            total += sum(len(str(v)) for v in values)
        else:
            total += values.nbytes
    return total


def split_batch(batch: Dict[str, np.ndarray], parts: int) -> List[Dict[str, np.ndarray]]:
    """Cut a batch into ``parts`` contiguous source files."""
    total = len(next(iter(batch.values())))
    per = -(-total // parts)
    return [
        {name: values[start:start + per] for name, values in batch.items()}
        for start in range(0, total, per)
    ]


def resident_bytes(dw: Warehouse) -> int:
    """Bytes currently held by the object store (live + not-yet-GC'd)."""
    return sum(blob.size for blob in dw.store.list(""))


def engine_counters(dw: Warehouse) -> Dict[str, float]:
    """Running totals read from the deployment's public stats objects."""
    meter = dw.store.meter
    requests = meter.requests
    cache = dw.context.cache.stats
    sqldb = dw.context.sqldb
    lock = sqldb.commit_lock
    return {
        "storage.get_calls": requests.get("get", 0),
        "storage.put_calls": requests.get("put", 0)
        + requests.get("stage_block", 0)
        + requests.get("commit_block_list", 0),
        "storage.get_bytes": meter.bytes_read,
        "storage.put_bytes": meter.bytes_written,
        "lst.cache_hits": cache.hits,
        "lst.cache_lookups": cache.hits + cache.misses + cache.incremental_extensions,
        "lst.manifests_replayed": cache.manifests_replayed,
        "sqldb.commits": sqldb.stats["committed"],
        "sqldb.commit_lock_hold_sim_s": lock.total_hold_s,
        "sqldb.commit_lock_wait_sim_s": lock.total_wait_s,
        "sto.compaction_runs": len(dw.sto.compactions),
        "sto.checkpoint_runs": len(dw.sto.checkpoints),
        "sto.gc_blobs_deleted": sum(r.deleted_total for r in dw.sto.gc_reports),
    }


def counter_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """``after - before`` per key."""
    return {key: after[key] - before.get(key, 0) for key in after}


_NO_SCOPE = contextlib.nullcontext()


class OpTimer:
    """Times operations in both clocks plus CPU; one instance per round."""

    def __init__(self, dw: Warehouse, tracer: Any = None) -> None:
        self._clock = dw.clock
        #: During a traced pass every operation runs under a root span, so
        #: its child spans carry the operation's id.
        self._tracer = tracer
        self.wall_s: List[float] = []
        self.sim_s: List[float] = []
        self.cpu_s = 0.0
        #: Reference-kernel samples taken between operations, and the wall
        #: and CPU seconds they cost (for callers that time around them).
        self.kernel_s: List[float] = [calibration.kernel()]
        self.kernel_wall_s = 0.0
        self.kernel_cpu_s = 0.0
        self._last_kernel = time.perf_counter()

    def run(self, fn: Callable[[], Any]) -> Any:
        """Run one whole operation and record it as a sample."""
        result, wall, sim = self.segment(fn)
        self.record(wall, sim)
        return result

    def segment(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run part of an operation; returns (result, wall_s, sim_s).

        CPU time is accumulated here; the caller sums the segments of one
        logical operation and hands them to :meth:`record`.
        """
        scope = self._tracer.op() if self._tracer is not None else _NO_SCOPE
        with scope:
            sim0 = self._clock.now
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                result = fn()
            finally:
                done = time.perf_counter()
                wall = done - wall0
                self.cpu_s += time.process_time() - cpu0
        sim = self._clock.now - sim0
        if done - self._last_kernel >= calibration.PERIOD_S:
            cpu0 = time.process_time()
            self.kernel_s.append(calibration.kernel())
            self._last_kernel = time.perf_counter()
            self.kernel_wall_s += self._last_kernel - done
            self.kernel_cpu_s += time.process_time() - cpu0
        return result, wall, sim

    def record(self, wall_s: float, sim_s: float) -> None:
        """Record one finished logical operation."""
        self.wall_s.append(wall_s)
        self.sim_s.append(sim_s)

    def round_result(self, **fields: Any) -> "RoundResult":
        """A :class:`RoundResult` of the recorded operations; ``fields``
        supplies the rest and overrides what differs (closed-loop defaults:
        simulated latency = simulated time charged, round wall = sum of
        the operations' wall)."""
        values = {
            "op_wall_s": self.wall_s,
            "op_sim_latency_s": self.sim_s,
            "sim_charged_s": sum(self.sim_s),
            "wall_s": sum(self.wall_s),
            "cpu_s": self.cpu_s,
            "kernel_s": self.kernel_s,
        }
        values.update(fields)
        return RoundResult(**values)


@dataclass
class RoundResult:
    """What one round of fixed work produced."""

    #: Wall seconds per completed operation.
    op_wall_s: List[float]
    #: Simulated seconds per completed operation (queueing included where
    #: the workload has a queue).
    op_sim_latency_s: List[float]
    #: Simulated seconds the clock charged while executing operations.
    sim_charged_s: float
    #: Wall / CPU seconds of the round's timed region.
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    #: Deltas of :func:`engine_counters` plus workload-specific counts.
    counters: Dict[str, float]
    #: Reference-kernel samples taken while the round ran.
    kernel_s: List[float]
    #: Bytes put / user bytes and resident / live bytes at round end.
    write_amp: float
    space_amp: float
    #: ``(restart_ms, recover_ms)`` of the round's crash/restart episodes.
    restarts: List[Tuple[float, float]] = field(default_factory=list)
    #: Reference-kernel samples taken around restarts that ran after the
    #: round (empty where they ran inside it, under ``kernel_s``).
    restart_kernel_s: List[float] = field(default_factory=list)


class Workload:
    """Base class; subclasses set ``name`` and implement the hooks."""

    name = ""
    #: ``closed`` (next op after the previous completes) or ``open``.
    loop = "closed"
    #: True when every round builds its own warehouse, so rounds are
    #: independent and identically sized however many of them run.
    fresh_per_round = False
    #: Restarts of an idle deployment the harness times after each round;
    #: 0 where the rounds crash and restart by themselves.
    idle_restarts_per_round = 5

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        #: Set by the harness during a traced pass (see OpTimer).
        self.tracer: Any = None
        #: Human-readable answer-check failures (empty = correct).
        self.problems: List[str] = []

    def setup(self) -> Any:
        """Generate data and build a ready, warm warehouse; the returned
        state carries it as ``.dw``."""
        raise NotImplementedError

    def run_round(self, state: Any, k: int) -> RoundResult:
        """Do round ``k``'s fixed work; ``k == -1`` is the warm-up."""
        raise NotImplementedError

    def probe(self, state: Any) -> bool:
        """Run the fixed probe query on a new session; True if correct."""
        raise NotImplementedError

    def final_check(self) -> None:
        """End-of-run answer checks beyond the per-round ones."""

    # -- shared helpers ------------------------------------------------------

    def round_rng(self, k: int) -> np.random.Generator:
        """The PRNG of round ``k`` — a function of (seed, k) only."""
        return np.random.default_rng([self.seed, k + 1])

    def timer(self, dw: Warehouse) -> OpTimer:
        """An :class:`OpTimer` wired to the active tracer, if any."""
        return OpTimer(dw, self.tracer)

    def restart(self, state: Any) -> Tuple[float, float, Any]:
        """One restart: recover, open a new session, answer the probe.

        Returns ``(restart_ms, recover_ms, report)``.  The caller has
        already made the process "die" (or it died idle).
        """
        dw = state.dw
        start = time.perf_counter()
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        recovered = time.perf_counter()
        correct = self.probe(state)
        end = time.perf_counter()
        if not correct:
            self.problems.append("wrong answer to the probe query after a restart")
        return (end - start) * 1e3, (recovered - start) * 1e3, report


def add_recovery_counts(counts: Dict[str, float], report: Any) -> None:
    """Fold one RecoveryReport into the ``chaos.*`` counters."""
    counts["chaos.in_doubt_resolved"] = (
        counts.get("chaos.in_doubt_resolved", 0.0)
        + report.in_doubt_committed
        + report.in_doubt_aborted
    )
    counts["chaos.staged_blocks_discarded"] = (
        counts.get("chaos.staged_blocks_discarded", 0.0)
        + report.staged_blocks_discarded
    )
