"""The DAG scheduler: placement, simulated timelines, task retry.

List-scheduling over per-node slot timelines: each task starts at the later
of (its dependencies' finish, the earliest free slot in its pool) and runs
for a duration from the cost model.  The *real* Python work of each task
executes immediately (in topological order, with object-store latency
charging suspended); only simulated time is laid out in parallel.  After a
DAG completes, the shared clock advances to the makespan — so callers
observe realistic elapsed time for distributed statements.

Failure handling (Section 4.3, "Resilience to Compute Failures"): a failed
attempt burns half its duration, then the task is re-placed — on a fresh
best slot, which models re-scheduling on the surviving topology.  The
abandoned attempt's staged blocks and private files are left behind for
garbage collection, exactly as in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.common.clock import SimulatedClock
from repro.common.config import DcpConfig
from repro.common.errors import TaskFailedError, TransientStorageError
from repro.dcp.costmodel import CostModel
from repro.dcp.dag import WorkflowDag
from repro.dcp.tasks import Task, TaskContext, TaskRun
from repro.dcp.topology import ComputeNode, Topology
from repro.dcp.wlm import WorkloadManager
from repro.storage.object_store import ObjectStore

if TYPE_CHECKING:
    from repro.telemetry.facade import Telemetry


@dataclass
class DagResult:
    """Outcome of one DAG execution."""

    results: Dict[str, Any]
    runs: Dict[str, TaskRun]
    started_at: float
    finished_at: float
    retries: int = 0

    @property
    def makespan(self) -> float:
        """Simulated wall-clock of the whole DAG."""
        return self.finished_at - self.started_at

    def result_of(self, task_id: str) -> Any:
        """Result value of one task."""
        return self.results[task_id]


class Scheduler:
    """Executes workflow DAGs against a topology or a WLM's pools."""

    def __init__(
        self,
        clock: SimulatedClock,
        store: ObjectStore,
        cost_model: CostModel,
        config: DcpConfig,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        self._clock = clock
        self._store = store
        self._cost_model = cost_model
        self._config = config
        self._telemetry = telemetry
        self._failure_rng = random.Random(config.task_failure_seed)

    def execute(
        self,
        dag: WorkflowDag,
        wlm: Optional[WorkloadManager] = None,
        topology: Optional[Topology] = None,
        advance_clock: bool = True,
    ) -> DagResult:
        """Run every task of ``dag``; returns timings and results.

        Tasks are routed to ``wlm`` pools by their ``pool`` attribute, or
        all to ``topology`` when given directly.  With ``advance_clock``
        (the default) the shared clock moves to the DAG's makespan.
        """
        if (wlm is None) == (topology is None):
            raise ValueError("provide exactly one of wlm or topology")
        base_time = self._clock.now
        tel = self._telemetry
        dag_span = (
            tel.start_span("dcp.dag", "dcp", tasks=len(dag.tasks))
            if tel is not None and tel.tracing
            else None
        )
        # Slot timelines deliberately persist across DAGs: a pool still busy
        # with an earlier (logically concurrent) statement delays this one,
        # which is how read/write contention appears when workload
        # separation is disabled.  Slots freed in the past cost nothing.

        finish: Dict[str, float] = {}
        results: Dict[str, Any] = {}
        runs: Dict[str, TaskRun] = {}
        total_retries = 0

        activation = None
        try:
            try:
                # Activation happens inside the try: if it raises, the
                # error arm below still closes the DAG span.
                if tel is not None:
                    activation = tel.activate(dag_span)
                    activation.__enter__()
                for task_id in dag.topological_order():
                    task = dag.tasks[task_id]
                    pool = (
                        topology if topology is not None else wlm.pool(task.pool)
                    )
                    ready = max(
                        [finish[up] for up in dag.upstream_of(task_id)]
                        + [base_time]
                    )
                    run, result = self._run_task(task, pool, ready, dag, results)
                    finish[task_id] = run.finish
                    results[task_id] = result
                    runs[task_id] = run
                    total_retries += run.attempts - 1
                finished_at = max(finish.values(), default=base_time)
            finally:
                if activation is not None:
                    activation.__exit__(None, None, None)
            if tel is not None:
                # End the span before the metering calls below so a
                # metrics failure cannot strand it.
                tel.end_span(
                    dag_span, end_time=finished_at, retries=total_retries
                )
        except BaseException as exc:
            if tel is not None:
                tel.end_span(
                    dag_span, status="error", **{"error.type": type(exc).__name__}
                )
            raise

        if tel is not None and tel.metering:
            tel.metrics.counter("dcp.dags").inc()
            tel.metrics.counter("dcp.task_retries").inc(total_retries)
            tel.metrics.histogram("dcp.dag_makespan_s").observe(
                finished_at - base_time
            )
        if advance_clock:
            self._clock.advance_to(finished_at)
        return DagResult(
            results=results,
            runs=runs,
            started_at=base_time,
            finished_at=finished_at,
            retries=total_retries,
        )

    # -- internals ----------------------------------------------------------

    def _run_task(
        self,
        task: Task,
        pool: Topology,
        ready: float,
        dag: WorkflowDag,
        results: Dict[str, Any],
    ) -> Tuple[TaskRun, Any]:
        duration = self._cost_model.task_duration(
            task.est_rows, task.est_files, task.est_bytes
        )
        inputs = {up: results[up] for up in dag.upstream_of(task.task_id)}
        tel = self._telemetry
        tracing = tel is not None and tel.tracing
        first_start: Optional[float] = None
        attempt = 0
        while attempt <= self._config.max_task_retries:
            attempt += 1
            node, slot = self._earliest_slot(pool, ready)
            start = max(node.slot_free_at[slot], ready)
            if first_start is None:
                first_start = start
            if tel is not None and start > ready:
                # The task was ready but every slot was busy: the gap is
                # scheduling wait, not compute.
                tel.record_wait("dcp_dispatch", start - ready)
            span = (
                # Task spans are named by the caller-supplied task label
                # (one per DAG node), not a fixed vocabulary entry.
                tel.start_span(  # repro: ignore[metric-naming]
                    task.label,
                    "dcp.task",
                    track=f"node:{node.node_id}",
                    tid=slot + 1,
                    start_time=start,
                    pool=task.pool,
                    attempt=attempt,
                    est_rows=task.est_rows,
                )
                if tracing
                else None
            )
            try:
                if self._attempt_fails(task, attempt):
                    # The failed attempt burns half its budget, then the
                    # task is re-scheduled; its private files/blocks become
                    # GC orphans.
                    node.slot_free_at[slot] = start + duration * 0.5
                    ready = start + duration * 0.5
                    self._record_attempt(
                        tel,
                        span,
                        start + duration * 0.5,
                        "error",
                        "injected failure",
                    )
                    continue
                context = TaskContext(
                    node_id=node.node_id, attempt=attempt, inputs=inputs
                )
                try:
                    if span is not None:
                        with tel.activate(span), self._store.latency_suspended():
                            result = task.fn(context)
                    else:
                        with self._store.latency_suspended():
                            result = task.fn(context)
                except TransientStorageError as exc:
                    node.slot_free_at[slot] = start + duration * 0.5
                    ready = start + duration * 0.5
                    self._record_attempt(
                        tel, span, start + duration * 0.5, "error", str(exc)
                    )
                    continue
                node.slot_free_at[slot] = start + duration
                self._record_attempt(tel, span, start + duration, "ok", None)
            except BaseException as exc:
                # Any other escape (task bug, simulated crash unwinding)
                # must not strand the attempt span.
                self._record_attempt(tel, span, start, "error", str(exc))
                raise
            if tel is not None and tel.metering:
                tel.metrics.counter("dcp.tasks", pool=task.pool).inc()
                tel.metrics.histogram("dcp.task_duration_s", pool=task.pool).observe(
                    duration
                )
            run = TaskRun(
                task_id=task.task_id,
                node_id=node.node_id,
                attempts=attempt,
                start=first_start,
                finish=start + duration,
                result=result,
            )
            return run, result
        raise TaskFailedError(
            f"task {task.task_id!r} failed after {attempt} attempts"
        )

    @staticmethod
    def _record_attempt(tel, span, end_time, status, error) -> None:
        if tel is None or span is None:
            return
        attributes = {} if error is None else {"error.message": error}
        tel.end_span(span, status=status, end_time=end_time, **attributes)
        if status != "ok" and tel.metering:
            tel.metrics.counter("dcp.task_failures").inc()

    def _attempt_fails(self, task: Task, attempt: int) -> bool:
        if attempt in task.fail_on_attempts:
            return True
        rate = self._config.task_failure_rate
        return rate > 0 and self._failure_rng.random() < rate

    @staticmethod
    def _earliest_slot(pool: Topology, ready: float) -> Tuple[ComputeNode, int]:
        best: Optional[Tuple[float, ComputeNode, int]] = None
        for node in pool.nodes:
            for slot, free_at in enumerate(node.slot_free_at):
                start = max(free_at, ready)
                if best is None or start < best[0]:
                    best = (start, node, slot)
        if best is None:
            raise TaskFailedError("no compute nodes available in pool")
        return best[1], best[2]
