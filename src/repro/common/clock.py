"""Simulated time.

All "time" in the reproduction — blob latencies, task runtimes, retention
periods, checkpoint lifetimes — flows through one :class:`SimulatedClock`.
This replaces the datacenter wall clock of the production system with a
deterministic virtual clock so that experiments are exactly repeatable and
run in milliseconds of real time regardless of the simulated duration.

The clock only moves forward, via :meth:`advance` (add a duration) or
:meth:`advance_to` (jump to an absolute instant).  Components that model
work (the DCP cost model, the storage latency model) advance the clock;
everything else just reads it.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple


class SimulatedClock:
    """A deterministic, monotonically non-decreasing virtual clock.

    Time is a float in *simulated seconds* from an arbitrary epoch (0.0).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._watchers: List[Tuple[float, Callable[[float], None]]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` (must be >= 0).

        Returns the new time.
        """
        if seconds < 0:
            raise ValueError(f"cannot move time backwards by {seconds}s")
        return self.advance_to(self._now + seconds)

    def advance_to(self, instant: float) -> float:
        """Move the clock forward to the absolute time ``instant``.

        A no-op if ``instant`` is in the past (another component may have
        advanced the clock further already).  Returns the new time.
        """
        if instant > self._now:
            self._now = instant
            self._fire_watchers()
        return self._now

    def call_at(self, instant: float, callback: Callable[[float], None]) -> None:
        """Register ``callback(now)`` to run once the clock reaches ``instant``.

        Used by background services (e.g. the STO trigger loop) to schedule
        periodic work without a real event loop.  Callbacks registered for
        the past fire on the next advance.
        """
        self._watchers.append((instant, callback))

    def next_watch(self) -> float:
        """The earliest instant a :meth:`call_at` watcher waits for.

        ``math.inf`` when no watcher is registered.  A watcher registered
        for the past reports its (past) instant: it fires on the next
        advance, whatever the target.
        """
        return min((instant for instant, __ in self._watchers), default=math.inf)

    def _fire_watchers(self) -> None:
        due = [(t, cb) for t, cb in self._watchers if t <= self._now]
        if not due:
            return
        self._watchers = [(t, cb) for t, cb in self._watchers if t > self._now]
        for __, callback in sorted(due, key=lambda pair: pair[0]):
            callback(self._now)
