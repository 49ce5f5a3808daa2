"""The multi-tenant gateway: the deterministic front door to the FE.

A :class:`Gateway` bundles the three serving-layer pieces — the
cooperative :class:`~repro.service.tasklets.TaskletScheduler`, the
per-tenant :class:`~repro.service.sessions.SessionPool`, and the
:class:`~repro.service.admission.AdmissionController` — in front of one
deployment's FE.  Clients :meth:`submit` work tagged with a tenant and a
workload class; admitted requests wait in bounded class queues until the
dispatcher tasklet executes them on a pooled FE session, and shed
requests surface :class:`~repro.common.errors.RequestSheddedError` with
a retry-after hint.  Every request's life cycle is recorded in a ledger
the ``sys.dm_requests`` view reads, and the whole gateway runs on the
deployment's simulated clock — no wall time, no threads.

Crash behaviour: the three ``service.*`` crashpoints model a gateway
process death with requests still queued or mid-flight.  The gateway
joins the deployment's recovery participants, so after a crash
:class:`repro.chaos.RecoveryManager` calls :meth:`Gateway.scavenge`,
which marks every queued/running request ``scavenged`` and closes all
pooled sessions: the ledger never shows a request stuck
``queued``/``running`` after recovery.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import (
    PolarisError,
    RequestSheddedError,
    RequestTimeoutError,
    ServiceError,
)
from repro.service import admission
from repro.service.admission import WORKLOAD_CLASSES, AdmissionController
from repro.service.sessions import SessionPool
from repro.service.tasklets import Tasklet, TaskletScheduler

if TYPE_CHECKING:
    from repro.fe.context import ServiceContext
    from repro.fe.session import Session

#: Work a client submits: a SQL text, or a callable taking the FE session.
RequestWork = Union[str, Callable[["Session"], Any]]

#: Grid on which the idle dispatcher polls the class queues (simulated
#: seconds); it wakes only at grid instants where something can have changed.
IDLE_POLL_S = 0.01
#: Simulated think time the dispatcher spends between dispatches.
DISPATCH_INTERVAL_S = 0.001
#: Finished request records retained by the ledger.
FINISHED_HISTORY_CAP = 2048


class Request:
    """One submitted request's full life-cycle record (``sys.dm_requests``)."""

    def __init__(
        self,
        request_id: int,
        tenant: str,
        workload_class: str,
        priority: int,
        work: RequestWork,
        submitted_at: float,
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.workload_class = workload_class
        self.priority = priority
        self.work = work
        self.submitted_at = submitted_at
        #: ``queued`` | ``running`` | ``completed`` | ``failed`` |
        #: ``timed_out`` | ``shed`` | ``scavenged``.
        self.status = "queued"
        self.session_id = 0
        self.started_at = 0.0
        self.finished_at = 0.0
        self.queue_wait_s = 0.0
        self.execute_s = 0.0
        self.retry_after_s = 0.0
        #: Error class name for ``failed`` / ``timed_out``, shed reason
        #: for ``shed``.
        self.error = ""
        #: The terminal exception (``failed`` / ``timed_out`` / ``shed`` /
        #: ``scavenged``); :meth:`outcome` raises it.
        self.exception: Optional[Exception] = None
        #: The work's return value once ``completed``.
        self.result: Any = None

    @property
    def finished(self) -> bool:
        """Whether the request reached a terminal status."""
        return self.status not in ("queued", "running")

    def outcome(self) -> Any:
        """The work's result, or the terminal error as an exception.

        Returns :attr:`result` once ``completed``.  Raises the recorded
        terminal exception otherwise — :class:`RequestTimeoutError` for a
        queue-deadline expiry, :class:`RequestSheddedError` for a shed
        request, whatever the work raised for a ``failed`` one,
        and :class:`ServiceError` for ``scavenged``.  A request still
        ``queued``/``running`` raises :class:`ServiceError`: drive
        :meth:`Gateway.run` first.
        """
        if self.status == "completed":
            return self.result
        if self.exception is not None:
            raise self.exception
        raise ServiceError(
            f"request {self.request_id} is still {self.status!r}; "
            "run the gateway to a terminal status first"
        )

    def row(self) -> Dict[str, Any]:
        """The request as one ``sys.dm_requests`` row dict."""
        return {
            "request_id": self.request_id,
            "session_id": self.session_id,
            "tenant": self.tenant,
            "workload_class": self.workload_class,
            "priority": self.priority,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_s": self.queue_wait_s,
            "execute_s": self.execute_s,
            "retry_after_s": self.retry_after_s,
            "error": self.error,
        }


class Gateway:
    """Admission, queueing, dispatch, and accounting for one deployment."""

    def __init__(
        self, context: "ServiceContext", seed: Optional[int] = None
    ) -> None:
        self._context = context
        self._telemetry = context.telemetry
        if seed is None:
            seed = context.config.seed
        #: The cooperative scheduler clients and the dispatcher share.
        self.scheduler = TaskletScheduler(context.clock, seed=seed)
        #: Admission control (token buckets + bounded class queues).
        self.admission = AdmissionController(context.clock, seed=seed)
        #: The per-tenant FE session pool.
        self.pool = SessionPool(context)
        self._next_request_id = 1
        self._requests: Dict[int, Request] = {}
        self._finished_ids: Deque[int] = deque()
        #: Monotonic terminal totals keyed by ``(status, workload_class)``
        #: — unlike the ledger these never evict, so accounting stays
        #: exact past :data:`FINISHED_HISTORY_CAP`.
        self._finished_totals: Dict[Tuple[str, str], int] = {}
        self._dispatcher: Optional[Tasklet] = None
        context.gateway = self
        context.participants["gateway"] = self

    @property
    def context(self) -> "ServiceContext":
        """The deployment this gateway fronts."""
        return self._context

    # -- client surface ----------------------------------------------------

    def submit(
        self,
        tenant: str,
        workload_class: str,
        work: RequestWork,
        priority: int = 0,
    ) -> Request:
        """Submit work for a tenant; queued on success, raises when shed.

        Returns the queued :class:`Request`.  Raises
        :class:`RequestSheddedError` (carrying the retry-after hint) when
        the tenant's token bucket is dry or the class queue is full.
        """
        if workload_class not in WORKLOAD_CLASSES:
            raise PolarisError(f"unknown workload class {workload_class!r}")
        metrics = self._telemetry.metrics
        metrics.counter(
            "service.requests", tenant=tenant, workload_class=workload_class
        ).inc()
        request = Request(
            self._next_request_id,
            tenant,
            workload_class,
            priority,
            work,
            self._context.clock.now,
        )
        self._next_request_id += 1
        verdict = self.admission.admit(tenant, workload_class, priority, request)
        if verdict is not None:
            reason, retry_after_s = verdict
            request.retry_after_s = retry_after_s
            request.error = reason
            request.exception = RequestSheddedError(reason, retry_after_s)
            self._record(request)
            self._finish(request, "shed")
            metrics.counter("service.shed", reason=reason).inc()
            metrics.histogram("service.retry_after_s").observe(retry_after_s)
            # The retry-after hint is the stall a well-behaved client
            # honors before resubmitting — the throttle's real cost.
            self._telemetry.record_wait(
                "throttle",
                retry_after_s,
                tenant=tenant,
                workload_class=workload_class,
            )
            raise request.exception
        self._record(request)
        metrics.counter("service.admitted", workload_class=workload_class).inc()
        metrics.gauge("service.queue_depth").set(self.admission.queue_depth())
        crashpoint("service.admit.after_enqueue")
        return request

    def run(self, until: Optional[float] = None) -> int:
        """Run clients + dispatcher until quiescent (or the clock hits ``until``).

        Spawns a dispatcher tasklet if none is live, then drives the
        shared scheduler; returns the number of tasklet steps executed.
        The dispatcher exits once both queues are empty and no other
        tasklet is pending, so a plain ``gateway.run()`` after a batch of
        :meth:`submit` calls drains exactly that batch.
        """
        if self._dispatcher is None or self._dispatcher.done:
            self._dispatcher = self.scheduler.spawn(
                self._dispatch_body(), name="dispatcher"
            )
        return self.scheduler.run(until)

    # -- dispatch ----------------------------------------------------------

    def _dispatch_body(self):
        """The dispatcher tasklet: pop, execute, account, repeat.

        Idle, it polls the queues on the ``IDLE_POLL_S`` grid, but wakes
        only at the first grid instant at which another tasklet, a clock
        watcher or the end of the current run can have changed anything
        (:meth:`TaskletScheduler.next_poll`): every poll it skips would
        have found both queues empty, so dispatch instants and deadline
        expiries are those of polling every grid instant.
        """
        while True:
            request, expired = self.admission.next_request()
            for timed_out in expired:
                self._finish(timed_out, "timed_out")
                self._telemetry.metrics.counter(
                    "service.timeouts", workload_class=timed_out.workload_class
                ).inc()
                # The expired request's whole queue wait bought nothing;
                # attribute it explicitly (the dispatcher is expiring
                # someone else's request).
                self._telemetry.record_wait(
                    "queue_deadline",
                    self._context.clock.now - timed_out.submitted_at,
                    tenant=timed_out.tenant,
                    workload_class=timed_out.workload_class,
                )
            self._telemetry.metrics.gauge("service.queue_depth").set(
                self.admission.queue_depth()
            )
            if request is None:
                if self.scheduler.pending == 0:
                    return None
                yield self.scheduler.next_poll(
                    self._context.clock.now + IDLE_POLL_S, IDLE_POLL_S
                )
                continue
            self._execute(request)
            yield DISPATCH_INTERVAL_S

    def _execute(self, request: Request) -> None:
        """Run one admitted request on a pooled session and account it."""
        crashpoint("service.dispatch.before_execute")
        tel = self._telemetry
        metrics = tel.metrics
        try:
            gateway_session = self.pool.acquire(request.tenant)
        except PolarisError as error:
            # An acquisition failure (e.g. SessionQuotaError) fails the
            # request, never the dispatcher.
            self._fail(request, error)
            # Acquisition never blocks — it fails fast on quota — so this
            # wait kind is count-only starvation evidence.
            tel.record_wait(
                "session_pool",
                0.0,
                tenant=request.tenant,
                workload_class=request.workload_class,
            )
            return
        # The session is held from here on: everything, including the
        # pre-execution accounting, runs under the releasing ``finally``.
        try:
            metrics.gauge("service.sessions_open").set(self.pool.open_count)
            request.status = "running"
            request.session_id = gateway_session.session_id
            request.started_at = self._context.clock.now
            request.queue_wait_s = request.started_at - request.submitted_at
            # Statements this request executes and waits it suffers are
            # attributed to its tenant and workload class.
            with tel.request_scope(request.tenant, request.workload_class):
                if request.queue_wait_s > 0:
                    tel.record_wait("admission_queue", request.queue_wait_s)
                try:
                    with tel.span(
                        "service.request",
                        "service",
                        tenant=request.tenant,
                        workload_class=request.workload_class,
                        request_id=request.request_id,
                    ):
                        if isinstance(request.work, str):
                            request.result = gateway_session.session.sql(
                                request.work
                            )
                        else:
                            request.result = request.work(
                                gateway_session.session
                            )
                    crashpoint("service.dispatch.after_execute")
                except Exception as error:  # repro: ignore[no-swallowed-errors]
                    # Not swallowed: whatever the work raised fails this
                    # request and Request.outcome() re-raises it; only the
                    # dispatcher must survive (a SimulatedCrash is a
                    # BaseException and still unwinds).
                    self._fail(request, error)
                    return
            self._finish(request, "completed")
            metrics.counter(
                "service.completions", workload_class=request.workload_class
            ).inc()
            metrics.histogram(
                "service.queue_wait_s", workload_class=request.workload_class
            ).observe(request.queue_wait_s)
            metrics.histogram(
                "service.request_latency_s",
                workload_class=request.workload_class,
            ).observe(request.finished_at - request.submitted_at)
        finally:
            self.pool.release(gateway_session)
            metrics.gauge("service.sessions_open").set(self.pool.open_count)

    # -- bookkeeping -------------------------------------------------------

    def _record(self, request: Request) -> None:
        self._requests[request.request_id] = request

    def _fail(self, request: Request, error: Exception) -> None:
        request.error = type(error).__name__
        request.exception = error
        self._finish(request, "failed")
        self._telemetry.metrics.counter(
            "service.failures", error=request.error
        ).inc()

    def _finish(self, request: Request, status: str) -> None:
        request.status = status
        request.finished_at = self._context.clock.now
        if request.started_at:
            request.execute_s = request.finished_at - request.started_at
        if status == "timed_out" and request.exception is None:
            request.error = "RequestTimeoutError"
            request.exception = RequestTimeoutError(
                f"request {request.request_id} waited past the "
                f"{admission.QUEUE_DEADLINE_S:g}s queue deadline"
            )
        elif status == "scavenged" and request.exception is None:
            request.exception = ServiceError(
                f"request {request.request_id} was scavenged after a "
                "gateway crash"
            )
        key = (status, request.workload_class)
        self._finished_totals[key] = self._finished_totals.get(key, 0) + 1
        self._finished_ids.append(request.request_id)
        while len(self._finished_ids) > FINISHED_HISTORY_CAP:
            evicted = self._finished_ids.popleft()
            self._requests.pop(evicted, None)

    def reap_sessions(self) -> int:
        """Close idle-expired sessions; returns how many were reaped."""
        reaped = self.pool.reap_idle()
        if reaped:
            metrics = self._telemetry.metrics
            metrics.counter("service.sessions_reaped").inc(reaped)
            metrics.gauge("service.sessions_open").set(self.pool.open_count)
        return reaped

    def scavenge(self) -> int:
        """Reconcile the ledger after a crash: no request stays in flight.

        Drains the admission queues, marks every ``queued``/``running``
        request ``scavenged``, and closes all pooled sessions.  Called
        during restart recovery (the gateway is a recovery participant);
        returns the number of requests scavenged.
        """
        self.admission.drain()
        self.scheduler.clear()
        scavenged = 0
        # Snapshot the ledger: _finish evicts old finished entries from
        # _requests once the history cap is reached, so iterating the live
        # dict here would die with "dictionary changed size during
        # iteration" exactly when recovery matters most.
        for request in list(self._requests.values()):
            if not request.finished:
                self._finish(request, "scavenged")
                scavenged += 1
        self.pool.close_all()
        self._dispatcher = None
        metrics = self._telemetry.metrics
        metrics.gauge("service.queue_depth").set(0)
        metrics.gauge("service.sessions_open").set(0)
        return scavenged

    @property
    def inflight_count(self) -> int:
        """Sessions leased to a request plus requests running right now."""
        return self.pool.active_count + sum(
            1 for request in self._requests.values() if request.status == "running"
        )

    # -- introspection -----------------------------------------------------

    def session_rows(self) -> List[Dict[str, Any]]:
        """``sys.dm_sessions`` rows, in session-id order."""
        return self.pool.rows()

    def request_rows(self) -> List[Dict[str, Any]]:
        """``sys.dm_requests`` rows, in request-id order."""
        return [
            request.row() for __, request in sorted(self._requests.items())
        ]

    def requests_with_status(self, *statuses: str) -> List[Request]:
        """Ledger requests currently in any of ``statuses``, id order.

        The ledger evicts finished records past :data:`FINISHED_HISTORY_CAP`,
        so for *totals* over terminal statuses use :meth:`finished_count`;
        this method is for inspecting the retained records themselves.
        """
        return [
            request
            for __, request in sorted(self._requests.items())
            if request.status in statuses
        ]

    def finished_count(
        self, *statuses: str, workload_class: Optional[str] = None
    ) -> int:
        """Lifetime total of requests finished in any of ``statuses``.

        Counted monotonically at finish time, so the answer stays exact
        after the ledger evicts old records past :data:`FINISHED_HISTORY_CAP`
        (and after a scavenge).  Optionally restricted to one workload
        class.
        """
        return sum(
            count
            for (status, cls), count in self._finished_totals.items()
            if status in statuses
            and (workload_class is None or cls == workload_class)
        )
