"""The per-deployment telemetry facade.

One :class:`Telemetry` object per :class:`~repro.fe.context.ServiceContext`
bundles the span tracer, the metrics registry, the optional collectors
(query store, wait statistics, metrics sampler, watchdog — built here,
from ``TelemetryConfig``, and nowhere else), the request scope they
attribute by, and the domain hooks the instrumented layers call (storage
requests, latency charges, retries, waits, statements, bus events).
Every entry point fast-paths to a no-op — the scoped ones to one shared
null scope — when the corresponding ``TelemetryConfig`` switch is off, so
instrumented sites never test whether a collector exists.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.common.clock import SimulatedClock
from repro.common.config import TelemetryConfig
from repro.common.events import Event, EventBus, WILDCARD
from repro.telemetry import exporters
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.querystore import (
    SQL_TEXT_LIMIT,
    QueryStore,
    normalize_and_hash,
)
from repro.telemetry.scope import RequestScope
from repro.telemetry.spans import Span, SpanEvent, Tracer
from repro.telemetry.timeseries import MetricsSampler, Watchdog, default_rules
from repro.telemetry.waits import WaitStats

#: Live Telemetry instances in creation order (weakly held; the benchmark
#: harness exports combined traces/metrics from these after a run).
_INSTANCES: "List[weakref.ref[Telemetry]]" = []


def instances() -> "List[Telemetry]":
    """All live Telemetry instances, oldest first."""
    out: List[Telemetry] = []
    for ref in _INSTANCES:
        instance = ref()
        if instance is not None:
            out.append(instance)
    return out


def tracing_instances() -> "List[Telemetry]":
    """All live tracing-enabled Telemetry instances, oldest first."""
    return [instance for instance in instances() if instance.tracing]


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

    ``bus`` is mirrored into metrics/spans and handed to the collectors
    that publish on it; ``participants`` is the deployment's registry of
    crash-volatile state (``ServiceContext.participants``), which every
    collector holding in-flight records joins.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        config: Optional[TelemetryConfig] = None,
        seed: int = Histogram.DEFAULT_SEED,
        bus: Optional[EventBus] = None,
        participants: Optional[Dict[str, Callable[[], int]]] = None,
    ) -> None:
        config = self.config = config or TelemetryConfig()
        self.clock = clock
        #: Span tracing on/off (the expensive half).
        self.tracing = config.enabled
        #: Metrics registry recording on/off (cheap dict increments).
        self.metering = config.metrics or config.enabled
        self.metrics = MetricsRegistry(seed=seed)
        self.tracer = Tracer(clock, max_spans=config.max_spans)
        if bus is not None and (self.metering or self.tracing):
            # Mirror every bus event (wildcard) into metrics/spans.
            bus.subscribe(WILDCARD, self._on_bus_event)
        #: The only attribution state: (tenant, workload class, query
        #: fingerprint) frames the collectors read.
        self.scope = RequestScope()
        self._participants = participants if participants is not None else {}
        #: Whether any collector reads :attr:`scope` (the scoped entry
        #: points are the shared null scope otherwise).
        self._collecting = False
        metrics = self.metrics if self.metering else None
        #: Query store folding per-fingerprint execution profiles (None
        #: unless ``TelemetryConfig.query_store_enabled``).
        self.querystore = None
        if config.query_store_enabled:
            self.querystore = self._collector(
                "querystore",
                QueryStore(clock, config, metrics, bus, seed, self.scope),
            )
        #: Wait-statistics collector attributing every stalled simulated
        #: second (None unless ``TelemetryConfig.wait_stats_enabled``).
        self.waits = None
        if config.wait_stats_enabled:
            self.waits = self._collector(
                "waits",
                WaitStats(
                    clock,
                    metrics,
                    self.tracer if self.tracing else None,
                    seed,
                    self.scope,
                ),
            )
            # Bound once, so an enabled site reaches the collector with
            # no forwarding hop (the class-level methods are the no-ops).
            self.record_wait = self.waits.record_wait
            self.waiting = self.waits.waiting
        #: Time-series sampler over :attr:`metrics` (None unless
        #: ``TelemetryConfig.sample_interval_s`` > 0 — the disabled path
        #: allocates nothing and arms no clock watcher).
        self.sampler = None
        #: Threshold watchdog fed by :attr:`sampler` (None unless enabled).
        self.watchdog = None
        if self.metering and config.sample_interval_s > 0:
            self.sampler = MetricsSampler(
                clock, self.metrics, config.sample_interval_s
            )
            if config.watchdog_enabled:
                self.watchdog = Watchdog(self.metrics, bus, rules=default_rules())
                self.sampler.subscribe(self.watchdog.observe)
            self.sampler.start()
        _INSTANCES.append(weakref.ref(self))

    def _collector(self, name: str, collector):
        """Wire one collector that reads the scope and holds in-flight
        records: it joins the recovery participants under ``name``."""
        self._collecting = True
        self._participants[name] = collector.scavenge
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
        """Account one object-store request (called by ``ObjectStore``)."""
        if self.metering:
            metrics = self.metrics
            metrics.counter("storage.requests", op=operation).inc()
            if read_bytes:
                metrics.counter("storage.bytes_read").inc(read_bytes)
            if written_bytes:
                metrics.counter("storage.bytes_written").inc(written_bytes)
            metrics.histogram("storage.request_latency_s", op=operation).observe(
                cost
            )
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
        if self.metering:
            self.metrics.counter("storage.faults_injected", op=operation).inc()
        if self.tracing:
            self.tracer.add_event("storage.fault", op=operation, path=path)

    def integrity_corruption(self, kind: str, operation: str, path: str) -> None:
        """Account one injected corruption fault (wrong bytes, no error)."""
        if self.metering:
            self.metrics.counter(
                "storage.integrity_corruptions_injected", kind=kind, op=operation
            ).inc()
        if self.tracing:
            self.tracer.add_event(
                "storage.corruption", kind=kind, op=operation, path=path
            )

    def integrity_violation(self, path: str, detail: str) -> None:
        """Account one detected checksum mismatch (a corrupt read caught)."""
        if self.metering:
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
        if self.metering:
            mode = "clock" if charged else "node_timeline"
            self.metrics.counter(
                "storage.sim_latency_s", op=operation or "unknown", mode=mode
            ).inc(cost)

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
        if self.metering:
            self.metrics.counter("storage.retry_attempts", label=label).inc()
            if backoff_s > 0:
                self.metrics.histogram(
                    "storage.retry_backoff_s", label=label
                ).observe(backoff_s)
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
        if self.metering:
            outcome = "ok" if succeeded else "exhausted"
            self.metrics.counter(
                "storage.retry_outcomes", label=label, outcome=outcome
            ).inc()
        if self.tracing and not succeeded:
            self.tracer.add_event("retry.exhausted", label=label, attempts=attempts)

    # -- event-bus tap ---------------------------------------------------------

    def _on_bus_event(self, event: Event) -> None:
        if self.metering:
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

    def export_jsonl(self, path: Optional[str] = None) -> str:
        """The finished spans as JSONL (optionally written to ``path``)."""
        if path is not None:
            exporters.write_jsonl(self.spans, path)
            return path
        return exporters.spans_to_jsonl(self.spans)
