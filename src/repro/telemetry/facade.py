"""The per-deployment telemetry facade.

One :class:`Telemetry` object per :class:`~repro.fe.context.ServiceContext`
bundles the span tracer, the metrics registry, the optional collectors
(query store and wait statistics — built here, from ``TelemetryConfig``,
and nowhere else), the request scope they attribute by, and the domain
hooks the instrumented layers call (storage requests, latency charges,
retries, waits, statements, bus events).
Every entry point fast-paths to a no-op — the scoped ones to one shared
null scope — when the corresponding switch is off, so instrumented sites
never test whether a collector exists.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.common.clock import SimulatedClock
from repro.common.config import TelemetryConfig
from repro.common.events import Event, EventBus, WILDCARD
from repro.storage.metering import IoMeter
from repro.telemetry import exporters
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.querystore import (
    SQL_TEXT_LIMIT,
    QueryStore,
    normalize_and_hash,
)
from repro.telemetry.scope import RequestScope
from repro.telemetry.spans import Span, SpanEvent, Tracer
from repro.telemetry.waits import WaitStats

if TYPE_CHECKING:
    from repro.fe.context import Participant


class _NullScope:
    """Shared no-op stand-in for any scope whose switch is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class Telemetry:
    """Tracing, metrics and the optional collectors of one deployment.

    ``bus`` is mirrored into metrics/spans; ``participants`` is the
    deployment's registry of crash-volatile state
    (``ServiceContext.participants``), which every collector holding
    in-flight records joins, and the tracer too while tracing.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        config: Optional[TelemetryConfig] = None,
        seed: int = Histogram.DEFAULT_SEED,
        bus: Optional[EventBus] = None,
        participants: "Optional[Dict[str, Participant]]" = None,
    ) -> None:
        config = self.config = config or TelemetryConfig()
        self.clock = clock
        #: Span tracing on/off (the expensive half).
        self.tracing = config.enabled
        #: The metrics registry, always recording (cheap dict increments).
        self.metrics = MetricsRegistry(seed=seed)
        #: The deployment's object-store traffic totals; the store this
        #: telemetry observes adopts it as ``ObjectStore.meter``.
        self.meter = IoMeter()
        self.tracer = Tracer(clock)
        if bus is not None:
            # Mirror every bus event (wildcard) into metrics/spans.
            bus.subscribe(WILDCARD, self._on_bus_event)
        #: The only attribution state: (tenant, workload class, query
        #: fingerprint) frames the collectors read.
        self.scope = RequestScope()
        # Per-request instruments, bound the first time a label value
        # occurs (never before, so no empty series is ever listed).
        self._request_latency: Dict[str, Histogram] = {}
        self._sim_latency: Dict[Tuple[str, bool], Counter] = {}
        self._participants = participants if participants is not None else {}
        if self.tracing:
            # A dead process never ends the spans it opened.
            self._participants["tracer"] = self.tracer
        #: Whether any collector reads :attr:`scope` (the scoped entry
        #: points are the shared null scope otherwise).
        self._collecting = False
        #: Query store folding per-fingerprint execution profiles (None
        #: unless ``TelemetryConfig.query_store_enabled``).
        self.querystore = None
        if config.query_store_enabled:
            self.querystore = self._collector(
                "querystore",
                QueryStore(clock, self.metrics, self.meter, seed, self.scope),
            )
        #: Wait-statistics collector attributing every stalled simulated
        #: second (None unless ``TelemetryConfig.wait_stats_enabled``).
        self.waits = None
        if config.wait_stats_enabled:
            self.waits = self._collector(
                "waits",
                WaitStats(clock, seed, self.scope),
            )
            # Bound once, so an enabled site reaches the collector with
            # no forwarding hop (the class-level methods are the no-ops).
            self.record_wait = self.waits.record_wait
            self.waiting = self.waits.waiting

    def _collector(self, name: str, collector):
        """Wire one collector that reads the scope and holds in-flight
        records: it joins the recovery participants under ``name``."""
        self._collecting = True
        self._participants[name] = collector
        return collector

    # -- request scope, waits, statements (null scopes when nothing collects) --

    def request_scope(
        self, tenant: Optional[str] = None, workload_class: Optional[str] = None
    ):
        """Attribute what the ``with`` body records to one request."""
        if not self._collecting:
            return _NULL_SCOPE
        return self.scope.enter(tenant, workload_class)

    def record_wait(self, kind: str, wait_s: float, **overrides: Any) -> None:
        """Record one completed wait (:meth:`WaitStats.record_wait`);
        a no-op unless wait statistics are enabled."""

    def waiting(self, kind: str, **overrides: Any):
        """Charge the body's clock delta as a wait
        (:meth:`WaitStats.waiting`); the null scope unless wait
        statistics are enabled."""
        return _NULL_SCOPE

    def statement(self, text: str, kind: str, tokens: Optional[list] = None):
        """Scope of one SQL statement: frame, query-store record, span.

        ``tokens`` is ``tokenize(text)`` when the caller already lexed the
        statement; the fingerprint then reuses it instead of lexing again.

        Yields the statement's in-flight
        :class:`~repro.telemetry.querystore.PendingExecution` (None with
        the query store off).  Leaving the body folds the execution; an
        ``Exception`` records it as an error; a ``BaseException`` — a
        simulated crash — leaves it in flight for recovery to scavenge.
        The shared null scope when tracing and every collector are off.
        """
        if not (self._collecting or self.tracing):
            return _NULL_SCOPE
        return self._statement(text, kind, tokens)

    @contextmanager
    def _statement(
        self, text: str, kind: str, tokens: Optional[list]
    ) -> Iterator[Any]:
        store = self.querystore
        fingerprinted = query_hash = None
        if self._collecting:
            # Fingerprinted once: the same hash keys the query store's
            # profile and the waits suffered while the statement runs, so
            # sys.dm_exec_query_waits joins sys.dm_exec_query_stats.
            fingerprinted = normalize_and_hash(text, tokens)
            query_hash = fingerprinted[1]
        with self.scope.enter(query_hash=query_hash):
            pending = (
                store.start(text, kind, fingerprinted)
                if store is not None
                else None
            )
            try:
                clipped = text.strip()[:SQL_TEXT_LIMIT]
                with self.span("sql." + kind, "sql", sql=clipped):
                    yield pending
            except Exception as error:
                if pending is not None:
                    store.finish(pending, error=error)
                raise
            if pending is not None:
                store.finish(pending, rows=pending.rows)

    # -- span API (no-ops when tracing is off) -------------------------------

    def span(self, name: str, category: str = "fe", **attributes: Any):
        """Context manager for one nested span; no-op when tracing is off."""
        if not self.tracing:
            return _NULL_SCOPE
        return self.tracer.span(name, category, attributes=attributes)

    def start_span(
        self,
        name: str,
        category: str = "fe",
        *,
        parent: Optional[Span] = None,
        track: Optional[str] = None,
        tid: Optional[int] = None,
        start_time: Optional[float] = None,
        **attributes: Any,
    ) -> Optional[Span]:
        """Open a span explicitly (returns None when tracing is off)."""
        if not self.tracing:
            return None
        return self.tracer.start_span(
            name,
            category,
            parent=parent,
            track=track,
            tid=tid,
            start_time=start_time,
            attributes=attributes,
        )

    def end_span(
        self,
        span: Optional[Span],
        status: Optional[str] = None,
        end_time: Optional[float] = None,
        **attributes: Any,
    ) -> None:
        """Close a span from :meth:`start_span` (None-safe)."""
        if span is not None:
            self.tracer.end_span(span, status, end_time, **attributes)

    def activate(self, span: Optional[Span]):
        """Make ``span`` the parent for the ``with`` body (None-safe)."""
        if not self.tracing or span is None:
            return _NULL_SCOPE
        return self.tracer.activate(span)

    def add_event(self, name: str, **attributes: Any) -> Optional[SpanEvent]:
        """Attach an event to the active span, if tracing."""
        if not self.tracing:
            return None
        return self.tracer.add_event(name, **attributes)

    @property
    def current_span(self) -> Optional[Span]:
        """The contextvar-active span (None when tracing is off)."""
        return self.tracer.current if self.tracing else None

    @property
    def spans(self) -> List[Span]:
        """All finished spans."""
        return self.tracer.finished

    # -- storage hooks --------------------------------------------------------

    def storage_request(
        self,
        operation: str,
        path: str,
        read_bytes: int,
        written_bytes: int,
        cost: float,
    ) -> None:
        """Account one object-store request (called by ``ObjectStore``).

        Counts and bytes are the store's :attr:`meter`; this records the
        request's latency and, when tracing, its span.
        """
        latency = self._request_latency.get(operation)
        if latency is None:
            latency = self._request_latency[operation] = self.metrics.histogram(
                "storage.request_latency_s", op=operation
            )
        latency.observe(cost)
        if self.tracing:
            start, end = self.tracer.child_window(cost)
            span = self.tracer.start_span(
                "store." + operation,
                "storage",
                start_time=start,
                attributes={
                    "path": path,
                    "bytes_read": read_bytes,
                    "bytes_written": written_bytes,
                    "latency_s": cost,
                },
            )
            self.tracer.end_span(span, end_time=end)

    def storage_fault(self, operation: str, path: str) -> None:
        """Account one injected transient storage fault."""
        self.metrics.counter("storage.faults_injected", op=operation).inc()
        if self.tracing:
            self.tracer.add_event("storage.fault", op=operation, path=path)

    def integrity_corruption(self, kind: str, operation: str, path: str) -> None:
        """Account one injected corruption fault (wrong bytes, no error)."""
        self.metrics.counter(
            "storage.integrity_corruptions_injected", kind=kind, op=operation
        ).inc()
        if self.tracing:
            self.tracer.add_event(
                "storage.corruption", kind=kind, op=operation, path=path
            )

    def integrity_violation(self, path: str, detail: str) -> None:
        """Account one detected checksum mismatch (a corrupt read caught)."""
        self.metrics.counter("storage.integrity_errors").inc()
        if self.tracing:
            self.tracer.add_event(
                "storage.integrity_violation", path=path, detail=detail
            )

    def latency_charged(self, operation: str, cost: float, charged: bool) -> None:
        """Account simulated time from ``LatencyModel.charge``.

        ``charged`` distinguishes time advanced on the shared clock from
        time modeled inside DCP per-node timelines (charging suspended) —
        the two are reported separately so IO latency is never counted
        twice.
        """
        counter = self._sim_latency.get((operation, charged))
        if counter is None:
            counter = self._sim_latency[operation, charged] = self.metrics.counter(
                "storage.sim_latency_s",
                op=operation or "unknown",
                mode="clock" if charged else "node_timeline",
            )
        counter.inc(cost)

    # -- retry hooks ----------------------------------------------------------

    def retry_attempt(
        self,
        label: str,
        attempt: int,
        error: BaseException,
        backoff_s: float = 0.0,
    ) -> None:
        """Account one failed attempt inside ``with_retries``.

        ``backoff_s`` is the simulated backoff charged before the next
        attempt (0 for the final failure, which has no next attempt).
        """
        self.metrics.counter("storage.retry_attempts", label=label).inc()
        if backoff_s > 0:
            self.metrics.histogram("storage.retry_backoff_s", label=label).observe(
                backoff_s
            )
        if self.tracing:
            self.tracer.add_event(
                "retry",
                label=label,
                attempt=attempt,
                error=type(error).__name__,
                backoff_s=backoff_s,
            )

    def retry_outcome(self, label: str, attempts: int, succeeded: bool) -> None:
        """Account the final outcome of a retried operation."""
        outcome = "ok" if succeeded else "exhausted"
        self.metrics.counter(
            "storage.retry_outcomes", label=label, outcome=outcome
        ).inc()
        if self.tracing and not succeeded:
            self.tracer.add_event("retry.exhausted", label=label, attempts=attempts)

    # -- event-bus tap ---------------------------------------------------------

    def _on_bus_event(self, event: Event) -> None:
        self.metrics.counter("bus.events", topic=event.topic).inc()
        if self.tracing:
            scalars = {
                key: value
                for key, value in event.payload.items()
                if isinstance(value, (str, int, float, bool))
            }
            self.tracer.add_event("event:" + event.topic, **scalars)

    # -- export ---------------------------------------------------------------

    def export_chrome(
        self, path: Optional[str] = None, process_prefix: str = ""
    ) -> Dict[str, Any]:
        """The finished spans as a Chrome trace document (optionally written)."""
        document = exporters.chrome_trace(self.spans, process_prefix)
        if path is not None:
            exporters.write_chrome_trace(document, path)
        return document
