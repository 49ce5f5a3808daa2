"""Wait statistics: attribute every stalled simulated second.

SQL Server answers "where does time go" with ``sys.dm_os_wait_stats``;
this module is that subsystem for the simulation.  Every blocking point
— the sqldb commit lock, the gateway's admission queues and token
buckets, session-pool quota failures, storage retry backoff, DCP task
dispatch, STO job scheduling — reports how long it stalled the simulated
clock through one :class:`WaitStats` collector, under a registered wait
kind (:data:`repro.telemetry.names.WAIT_NAMES`; an unregistered kind
raises ``ValueError``).

Waits are attributed three ways at once: per wait kind
(``sys.dm_wait_stats``), and per (tenant, workload class) and query
fingerprint (``sys.dm_exec_query_waits``, joinable with
``sys.dm_exec_query_stats``) — all three read from the innermost frame
of the deployment's one :class:`~repro.telemetry.scope.RequestScope`,
which the gateway enters per request and the SQL runner per statement.
A wait is folded once, here: it has no metric series and no span.

Two recording styles:

* :meth:`WaitStats.record_wait` — the wait's duration is already known
  (the caller just advanced the clock past a backoff, or computed a
  queue wait from timestamps); folds immediately.
* :meth:`WaitStats.waiting` — a context manager that charges the clock
  delta across its body.  The open scope is tracked in-flight: a
  simulated crash (a ``BaseException``) escapes without folding, and
  :meth:`scavenge` discards the orphan so a half-measured wait never
  reaches the aggregates — the same crash hygiene the query store
  applies to in-flight executions.

The collector is only constructed when
``TelemetryConfig.wait_stats_enabled`` is on; instrumented sites call
``Telemetry.record_wait`` / ``Telemetry.waiting``, which are no-ops on a
disabled deployment.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

from repro.telemetry.metrics import Histogram
from repro.telemetry.names import WAIT_NAMES
from repro.telemetry.scope import Frame, RequestScope

if TYPE_CHECKING:
    from repro.common.clock import SimulatedClock


class PendingWait(NamedTuple):
    """One open :meth:`WaitStats.waiting` scope (not yet folded)."""

    token: int
    kind: str
    started_at: float
    #: Attribution resolved when the scope opened.
    frame: Frame


class _KindAggregate:
    """Running statistics for one wait kind: one histogram (count, total,
    max and the p95 reservoir) plus who waited."""

    __slots__ = ("histogram", "attribution")

    def __init__(self, seed: int, kind: str) -> None:
        # Seeded per-kind reservoir, like every other percentile source,
        # so p95 is deterministic across same-seed runs (crc32, not
        # hash(): string hashing is randomized per process).
        self.histogram = Histogram(seed=seed ^ zlib.crc32(kind.encode("utf-8")))
        #: (tenant, workload_class) -> [count, total_s]
        self.attribution: Dict[Tuple[str, str], List[float]] = {}

    def fold(self, wait_s: float, tenant: str, workload_class: str) -> None:
        self.histogram.observe(wait_s)
        slot = self.attribution.setdefault((tenant, workload_class), [0, 0.0])
        slot[0] += 1
        slot[1] += wait_s


class WaitStats:
    """Per-deployment wait-statistics collector over the simulated clock.

    Constructed by :class:`~repro.telemetry.facade.Telemetry` when
    ``telemetry.wait_stats_enabled`` is on and reachable as
    ``context.telemetry.waits`` (None when disabled).  ``scope`` is the
    deployment's request scope; a collector constructed standalone gets
    a private one.
    """

    def __init__(
        self,
        clock: "SimulatedClock",
        seed: int = 0,
        scope: Optional[RequestScope] = None,
    ) -> None:
        self._clock = clock
        self._seed = seed
        #: Where unattributed waits get their tenant / class / fingerprint.
        self.scope = scope if scope is not None else RequestScope()
        self._kinds: Dict[str, _KindAggregate] = {}
        #: (query_hash, kind) -> [count, total_s, max_s]
        self._query_waits: Dict[Tuple[str, str], List[float]] = {}
        self._inflight: Dict[int, PendingWait] = {}
        self._next_token = 0

    # -- recording ------------------------------------------------------------

    def record_wait(
        self,
        kind: str,
        wait_s: float,
        tenant: Optional[str] = None,
        workload_class: Optional[str] = None,
        query_hash: Optional[str] = None,
    ) -> None:
        """Fold one completed wait of known duration, ending now.

        ``kind`` must be registered in :data:`WAIT_NAMES`; tier-1 tests
        drive every call site with wait stats on, so a mistyped kind
        fails the suite.  Attribution
        defaults to the current request-scope frame; explicit ``tenant``
        / ``workload_class`` / ``query_hash`` override it for waits
        recorded outside the stalled request's own control flow (e.g.
        the dispatcher expiring someone else's queued request).
        """
        if kind not in WAIT_NAMES:
            raise ValueError(f"unregistered wait kind {kind!r}")
        if wait_s < 0:
            raise ValueError(f"negative wait {wait_s!r} for {kind!r}")
        frame = self.scope.current.override(tenant, workload_class, query_hash)
        self._fold(kind, wait_s, *frame)

    def waiting(
        self,
        kind: str,
        tenant: Optional[str] = None,
        workload_class: Optional[str] = None,
        query_hash: Optional[str] = None,
    ) -> "_WaitScope":
        """Context manager charging the clock delta across its body.

        The scope is held in-flight while open: an ``Exception`` escaping
        the body still folds the wait (the time was genuinely spent
        stalled), but a ``BaseException`` — a simulated crash — leaves it
        open for :meth:`scavenge`, so crashed waits are discarded, never
        counted as completed.
        """
        if kind not in WAIT_NAMES:
            raise ValueError(f"unregistered wait kind {kind!r}")
        frame = self.scope.current.override(tenant, workload_class, query_hash)
        self._next_token += 1
        pending = PendingWait(self._next_token, kind, self._clock.now, frame)
        self._inflight[pending.token] = pending
        return _WaitScope(self, pending)

    def _end(self, pending: PendingWait) -> None:
        if self._inflight.pop(pending.token, None) is None:
            return  # already scavenged; never double-count
        wait_s = max(self._clock.now - pending.started_at, 0.0)
        self._fold(pending.kind, wait_s, *pending.frame)

    def _fold(
        self,
        kind: str,
        wait_s: float,
        tenant: str,
        workload_class: str,
        query_hash: str,
    ) -> None:
        aggregate = self._kinds.get(kind)
        if aggregate is None:
            aggregate = self._kinds[kind] = _KindAggregate(self._seed, kind)
        aggregate.fold(wait_s, tenant, workload_class)
        if query_hash:
            slot = self._query_waits.setdefault(
                (query_hash, kind), [0, 0.0, 0.0]
            )
            slot[0] += 1
            slot[1] += wait_s
            if wait_s > slot[2]:
                slot[2] = wait_s

    # -- crash hygiene --------------------------------------------------------

    def scavenge(self) -> int:
        """Discard every open wait scope; returns how many were dropped.

        Called by :class:`repro.chaos.RecoveryManager` after a crash: the
        dead process never closed these scopes, so folding them would
        charge phantom stall time to the aggregates.
        """
        discarded = len(self._inflight)
        self._inflight.clear()
        return discarded

    @property
    def inflight_count(self) -> int:
        """How many wait scopes are currently open."""
        return len(self._inflight)

    # -- reading --------------------------------------------------------------

    def kinds(self) -> List[str]:
        """Every wait kind recorded so far, sorted."""
        return sorted(self._kinds)

    def total_wait_s(self, kind: str) -> float:
        """Total stalled seconds recorded under ``kind``."""
        aggregate = self._kinds.get(kind)
        return aggregate.histogram.total if aggregate is not None else 0.0

    def wait_count(self, kind: str) -> int:
        """How many waits were recorded under ``kind``."""
        aggregate = self._kinds.get(kind)
        return aggregate.histogram.count if aggregate is not None else 0

    def wait_stats_rows(self) -> List[Dict[str, Any]]:
        """``sys.dm_wait_stats`` rows, one per recorded wait kind."""
        rows = []
        for kind in self.kinds():
            aggregate = self._kinds[kind]
            histogram = aggregate.histogram
            tenants = sorted({t for t, _ in aggregate.attribution if t})
            classes = sorted({w for _, w in aggregate.attribution if w})
            rows.append(
                {
                    "wait_kind": kind,
                    "waits": histogram.count,
                    "total_wait_s": histogram.total,
                    "mean_wait_s": histogram.mean,
                    "max_wait_s": histogram.maximum,
                    "p95_wait_s": histogram.percentile(95.0),
                    "tenants": ",".join(tenants),
                    "workload_classes": ",".join(classes),
                }
            )
        return rows

    def query_waits_rows(self) -> List[Dict[str, Any]]:
        """``sys.dm_exec_query_waits`` rows, one per fingerprint x kind.

        Only waits that happened inside a statement's scope frame appear
        here (unattributed waits are still in ``sys.dm_wait_stats``); the
        ``query_hash`` column joins against ``sys.dm_exec_query_stats``.
        """
        rows = []
        for (query_hash, kind) in sorted(self._query_waits):
            count, total_s, max_s = self._query_waits[(query_hash, kind)]
            rows.append(
                {
                    "query_hash": query_hash,
                    "wait_kind": kind,
                    "waits": int(count),
                    "total_wait_s": total_s,
                    "max_wait_s": max_s,
                }
            )
        return rows


class _WaitScope:
    """Context manager behind :meth:`WaitStats.waiting`."""

    __slots__ = ("_stats", "_pending")

    def __init__(self, stats: WaitStats, pending: PendingWait) -> None:
        self._stats = stats
        self._pending = pending

    def __enter__(self) -> PendingWait:
        return self._pending

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Fold on clean exit and on ordinary exceptions; leave the scope
        # open (for scavenge) when a BaseException — a simulated crash —
        # is tearing the process down.
        if exc_type is None or issubclass(exc_type, Exception):
            self._stats._end(self._pending)
        return False
