"""The gateway's connection/session pool with per-tenant quotas.

Polaris fronts thousands of T-SQL connections; this reproduction models
the pool the gateway keeps between its clients and the FE.  Each
:class:`GatewaySession` wraps one :class:`repro.fe.session.Session` and
carries the operational facts the ``sys.dm_sessions`` view exposes.  The
pool enforces a per-tenant cap on concurrently open sessions, reuses idle
sessions before opening new ones (oldest-id first, so reuse order is
deterministic), and reaps sessions that sat idle past
:data:`SESSION_IDLE_TIMEOUT_S`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.common.errors import SessionQuotaError

if TYPE_CHECKING:
    from repro.fe.context import ServiceContext
    from repro.fe.session import Session

#: Maximum concurrently open sessions per tenant.
MAX_SESSIONS_PER_TENANT = 8
#: Idle sessions older than this are reaped (simulated seconds).
SESSION_IDLE_TIMEOUT_S = 300.0


class GatewaySession:
    """One pooled FE connection owned by a tenant."""

    def __init__(
        self, session_id: int, tenant: str, session: "Session", now: float
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        #: The wrapped FE session statements execute against.
        self.session = session
        #: ``idle`` | ``active`` | ``closed``.
        self.state = "idle"
        self.opened_at = now
        self.last_active_at = now
        #: Requests this session has executed.
        self.requests = 0


class SessionPool:
    """Opens, reuses, reaps, and accounts per-tenant FE sessions."""

    def __init__(self, context: "ServiceContext") -> None:
        self._context = context
        self._next_id = 1
        self._sessions: Dict[int, GatewaySession] = {}
        #: Sessions reaped over the pool's lifetime.
        self.reaped = 0

    # -- acquisition -------------------------------------------------------

    def acquire(self, tenant: str) -> GatewaySession:
        """An idle session for ``tenant``, opening one if under quota.

        Raises :class:`SessionQuotaError` when every one of the tenant's
        :data:`MAX_SESSIONS_PER_TENANT` sessions is busy.
        """
        idle = [
            s
            for s in self._sessions.values()
            if s.tenant == tenant and s.state == "idle"
        ]
        if idle:
            chosen = min(idle, key=lambda s: s.session_id)
            chosen.state = "active"
            return chosen
        open_count = sum(
            1
            for s in self._sessions.values()
            if s.tenant == tenant and s.state != "closed"
        )
        if open_count >= MAX_SESSIONS_PER_TENANT:
            raise SessionQuotaError(
                f"tenant {tenant!r} already holds {open_count} of "
                f"{MAX_SESSIONS_PER_TENANT} sessions"
            )
        from repro.fe.session import Session

        now = self._context.clock.now
        gs = GatewaySession(self._next_id, tenant, Session(self._context), now)
        self._next_id += 1
        gs.state = "active"
        self._sessions[gs.session_id] = gs
        return gs

    def release(self, session: GatewaySession) -> None:
        """Return a session to the idle set after a request finishes."""
        if session.state == "closed":
            return
        session.state = "idle"
        session.last_active_at = self._context.clock.now
        session.requests += 1

    # -- lifecycle ---------------------------------------------------------

    def reap_idle(self) -> int:
        """Close sessions idle at least :data:`SESSION_IDLE_TIMEOUT_S`."""
        now = self._context.clock.now
        timeout = SESSION_IDLE_TIMEOUT_S
        reaped = 0
        for session in self._sessions.values():
            if (
                session.state == "idle"
                and now - session.last_active_at >= timeout
            ):
                session.state = "closed"
                reaped += 1
        self.reaped += reaped
        return reaped

    def close_all(self) -> int:
        """Close every session (process restart); returns how many closed."""
        closed = 0
        for session in self._sessions.values():
            if session.state != "closed":
                session.state = "closed"
                closed += 1
        return closed

    # -- accounting --------------------------------------------------------

    @property
    def open_count(self) -> int:
        """Sessions currently idle or active."""
        return sum(
            1 for s in self._sessions.values() if s.state != "closed"
        )

    @property
    def active_count(self) -> int:
        """Sessions leased to a request right now."""
        return sum(
            1 for s in self._sessions.values() if s.state == "active"
        )

    def rows(self) -> List[Dict[str, Any]]:
        """One dict per known session, in id order (``sys.dm_sessions``)."""
        return [
            {
                "session_id": s.session_id,
                "tenant": s.tenant,
                "state": s.state,
                "opened_at": s.opened_at,
                "last_active_at": s.last_active_at,
                "requests": s.requests,
            }
            for __, s in sorted(self._sessions.items())
        ]
