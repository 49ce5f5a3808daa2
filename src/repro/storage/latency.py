"""Latency model for the simulated object store.

Each request costs a fixed round-trip plus a per-MiB transfer term, charged
to the shared :class:`~repro.common.clock.SimulatedClock`.  This is the
standard first-order model for cloud object stores and is sufficient for
the shapes reproduced in the paper's figures.
"""

from __future__ import annotations

from repro.common.clock import SimulatedClock
from repro.common.units import mib

#: Fixed per-request latency in simulated seconds.
REQUEST_LATENCY_S = 0.004
#: Additional latency per MiB transferred.
PER_MIB_LATENCY_S = 0.010


class LatencyModel:
    """Charges simulated time for storage requests.

    Charging can be *suspended* (see :meth:`suspended`): while the DCP
    executes a task DAG it models IO time inside per-node timelines, so the
    store must not also advance the shared clock per request — that would
    serialize time that is logically parallel.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._suspended = 0
        #: Optional observer ``(operation, cost, charged)`` — wired to the
        #: telemetry facade so charged time is attributed per operation
        #: kind, separately for clock-charged vs node-timeline-modeled IO.
        self.on_charge = None

    def charge(self, transferred_bytes: int = 0, operation: str = "") -> float:
        """Advance the clock by the cost of one request; return the cost.

        ``operation`` labels the request kind for telemetry attribution;
        the charge itself is identical for all kinds.
        """
        cost = self.cost_of(transferred_bytes)
        charged = self._suspended == 0
        if charged:
            self._clock.advance(cost)
        if self.on_charge is not None:
            self.on_charge(operation, cost, charged)
        return cost

    def suspend(self) -> None:
        """Stop charging the shared clock (nestable)."""
        self._suspended += 1

    def resume(self) -> None:
        """Undo one :meth:`suspend`."""
        if self._suspended == 0:
            raise AssertionError("latency model resumed more times than suspended")
        self._suspended -= 1

    def cost_of(self, transferred_bytes: int = 0) -> float:
        """Return the cost of a request without advancing the clock.

        Used by the DCP cost model when estimating task runtimes that are
        then charged in bulk on a per-node timeline.
        """
        return REQUEST_LATENCY_S + PER_MIB_LATENCY_S * mib(transferred_bytes)
