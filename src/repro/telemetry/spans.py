"""Hierarchical spans over the simulated clock.

A :class:`Span` is one timed unit of work — a transaction, a statement, a
DCP task, a storage request, a background job.  Spans nest: the tracer
keeps the active span in a :mod:`contextvars` variable, so any component
that starts a span automatically becomes a child of whatever its caller
was doing, across every layer of the stack, without threading a span
argument through the codebase.

Timestamps are *simulated* seconds from the deployment's shared
:class:`~repro.common.clock.SimulatedClock` — traces therefore show where
simulated time goes, which is the quantity the paper's figures plot.
Components that model time off-clock (the DCP lays task IO out on
per-node timelines) record spans with explicit start/end instants instead.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.clock import SimulatedClock

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_ROLLBACK = "rollback"

#: Default trace track (Chrome trace "process" row) for frontend work.
FE_TRACK = "fe"


@dataclass
class SpanEvent:
    """A point-in-time annotation attached to a span (e.g. a retry)."""

    name: str
    timestamp: float
    attributes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One timed, attributed unit of work in the trace tree."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start: float
    end: Optional[float] = None
    #: Trace row this span renders on: ``"fe"`` or ``"node:<id>"``.
    track: str = FE_TRACK
    #: Sub-row within the track (a node's task slot; 1 for the FE).
    tid: int = 1
    attributes: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    status: str = STATUS_OK
    #: Local IO-time cursor for child storage spans recorded while the
    #: shared clock is frozen (DCP task bodies); see Tracer.child_window.
    io_cursor: Optional[float] = None

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        """Whether the span has ended."""
        return self.end is not None

    def add_event(
        self, name: str, timestamp: float, **attributes: Any
    ) -> SpanEvent:
        """Attach a point-in-time event to this span."""
        event = SpanEvent(name=name, timestamp=timestamp, attributes=attributes)
        self.events.append(event)
        return event


class _ActiveSpan:
    """Context manager that makes ``span`` the contextvar parent."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span
        self._token = None

    def __enter__(self) -> Optional[Span]:
        self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._current.reset(self._token)
        return False


class _SpanScope:
    """Context manager that opens, activates, and closes one span."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._current.reset(self._token)
        if exc_type is not None and self._span.status == STATUS_OK:
            self._span.status = STATUS_ERROR
            self._span.attributes.setdefault("error.type", exc_type.__name__)
            self._span.attributes.setdefault("error.message", str(exc))
        self._tracer.end_span(self._span)
        return False


#: Hard cap on retained finished spans (overflow counts as dropped).
MAX_SPANS = 250_000


class Tracer:
    """Creates, nests, and retains spans against a simulated clock."""

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "repro_active_span", default=None
        )
        #: Finished spans, in end order.
        self.finished: List[Span] = []
        #: Spans discarded once :data:`MAX_SPANS` was reached.
        self.dropped: int = 0
        #: Started but not yet ended spans, by id (never exported).
        self.open_spans: Dict[int, Span] = {}

    @property
    def current(self) -> Optional[Span]:
        """The span new spans will become children of."""
        return self._current.get()

    def start_span(
        self,
        name: str,
        category: str = "fe",
        *,
        parent: Optional[Span] = None,
        track: Optional[str] = None,
        tid: Optional[int] = None,
        start_time: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span; the caller must eventually :meth:`end_span` it.

        Without an explicit ``parent`` the contextvar-active span is the
        parent.  ``track``/``tid`` default to the parent's placement so
        storage requests issued inside a DCP task land on the task's node
        row.  ``start_time`` overrides the clock (per-node timelines).
        """
        if parent is None:
            parent = self._current.get()
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            start=self._clock.now if start_time is None else start_time,
            track=track
            if track is not None
            else (parent.track if parent is not None else FE_TRACK),
            tid=tid if tid is not None else (parent.tid if parent is not None else 1),
            attributes=dict(attributes) if attributes else {},
        )
        self.open_spans[span.span_id] = span
        return span

    def end_span(
        self,
        span: Span,
        status: Optional[str] = None,
        end_time: Optional[float] = None,
        **attributes: Any,
    ) -> None:
        """Close ``span``; double-ending is a no-op."""
        if span.finished:
            return
        self.open_spans.pop(span.span_id, None)
        span.end = self._clock.now if end_time is None else end_time
        if span.end < span.start:
            span.end = span.start
        if status is not None:
            span.status = status
        if attributes:
            span.attributes.update(attributes)
        if len(self.finished) < MAX_SPANS:
            self.finished.append(span)
        else:
            self.dropped += 1

    @property
    def inflight_count(self) -> int:
        """How many spans are open (started, not yet ended)."""
        return len(self.open_spans)

    def scavenge(self) -> int:
        """Forget every open span; returns how many were dropped.

        Called by :class:`repro.chaos.RecoveryManager` after a crash: the
        dead process will never end these spans.  They were never in
        :attr:`finished`, so the exported trace is unchanged.
        """
        discarded = len(self.open_spans)
        self.open_spans.clear()
        return discarded

    def span(
        self,
        name: str,
        category: str = "fe",
        *,
        parent: Optional[Span] = None,
        track: Optional[str] = None,
        tid: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> _SpanScope:
        """Context manager: open, activate, and close a span.

        An exception escaping the body marks the span failed (with
        ``error.type``/``error.message`` attributes) and re-raises.
        """
        return _SpanScope(
            self,
            self.start_span(
                name,
                category,
                parent=parent,
                track=track,
                tid=tid,
                attributes=attributes,
            ),
        )

    def activate(self, span: Optional[Span]) -> _ActiveSpan:
        """Context manager making ``span`` the parent for its body.

        Used for long-lived spans (a transaction across statements) that
        are opened and closed explicitly rather than lexically.
        """
        return _ActiveSpan(self, span)

    def add_event(self, name: str, **attributes: Any) -> Optional[SpanEvent]:
        """Attach an event to the active span (dropped if none is active)."""
        span = self._current.get()
        if span is None:
            return None
        return span.add_event(name, self._clock.now, **attributes)

    def child_window(self, cost: float) -> tuple:
        """A ``(start, end)`` window for an off-clock child of duration ``cost``.

        While the DCP executes a task body the shared clock is frozen at
        DAG submission time, but the task span has an explicit simulated
        window.  Storage requests issued inside it are laid out back to
        back from the task's start using a per-span cursor, so the trace
        shows a plausible IO sub-timeline instead of a pile-up at one
        instant.  Outside any explicit window this is just
        ``(now - cost, now)`` — the request that was charged ending now.
        """
        parent = self._current.get()
        now = self._clock.now
        if parent is not None and parent.start >= now:
            cursor = parent.io_cursor if parent.io_cursor is not None else parent.start
            parent.io_cursor = cursor + cost
            return cursor, cursor + cost
        return max(now - cost, 0.0), now
