"""A cooperative tasklet scheduler over the simulated clock.

Hundreds of concurrent gateway clients must interleave deterministically
without threads or an event loop.  A *tasklet* is a plain generator that
yields when it wants to run next: either a number of simulated seconds to
sleep, or a :class:`WakeAt` — an absolute instant.  The scheduler keeps
a heap of wake times, advances the shared :class:`SimulatedClock` to the
earliest one, and resumes that tasklet.  Ties on the wake instant are
broken by a value drawn from a seeded PRNG when the tasklet is pushed, so
two runs with the same seed interleave byte-identically — and no tasklet
can starve another by name or insertion order alone.

A tasklet body may itself advance the clock (FE statements charge
simulated time); :meth:`SimulatedClock.advance_to` is monotonic, so a
wake instant that has already passed resumes immediately.

The scheduler also knows the *horizon*: the earliest instant at which
anything other than the running tasklet can act — the next pending
resumption, the clock's next :meth:`~SimulatedClock.call_at` watcher, or
the ``until`` of the current :meth:`TaskletScheduler.run`.  Nothing can
change before it, so a tasklet polling on a fixed grid asks
:meth:`TaskletScheduler.next_poll` for the first grid instant worth
waking at instead of resuming at every one.
"""

from __future__ import annotations

import heapq
import math
from random import Random
from typing import Any, Generator, List, Optional, Tuple

from repro.common.clock import SimulatedClock


class WakeAt(float):
    """An absolute simulated instant a tasklet yields instead of a sleep."""

    __slots__ = ()


#: The generator protocol tasklets implement: yield sleep seconds or a
#: :class:`WakeAt`.
TaskletBody = Generator[float, float, Any]


class Tasklet:
    """Handle for one spawned tasklet: name, liveness, and result."""

    def __init__(self, name: str, body: TaskletBody) -> None:
        self.name = name
        self._body = body
        self._started = False
        #: Whether the generator has run to completion.
        self.done = False
        #: The generator's return value once done.
        self.result: Any = None

    def __repr__(self) -> str:
        """Concise name/state form for scheduler debugging."""
        state = "done" if self.done else "runnable"
        return f"Tasklet({self.name!r}, {state})"


class TaskletScheduler:
    """Runs tasklets cooperatively on one simulated clock.

    The run loop is strictly deterministic: the next tasklet is the one
    with the smallest ``(wake_at, tiebreak, seq)`` triple, where
    ``tiebreak`` comes from a PRNG seeded with the scheduler seed and
    ``seq`` is a monotone push counter that makes the order total.
    Exceptions raised by a tasklet body (including
    :class:`~repro.common.errors.SimulatedCrash`) propagate out of
    :meth:`run` — a crashed process does not keep scheduling.  A
    non-finite sleep or instant raises ``ValueError`` naming the tasklet:
    a NaN would corrupt the heap order, an infinity never wakes.

    Every push draws one tie-break, so the draws depend on how many
    resumptions ran before.  A poller that skips its idle polls through
    :meth:`next_poll` consumes fewer draws than one that resumes at every
    grid instant; the two agree on every instant, but an *exact*
    wake-instant tie between two tasklets may break the other way — still
    seeded and deterministic.
    """

    def __init__(self, clock: SimulatedClock, seed: int = 0) -> None:
        self.clock = clock
        self._rng = Random(f"tasklets:{seed}")
        self._heap: List[Tuple[float, float, int, Tasklet]] = []
        self._seq = 0
        self._until: Optional[float] = None
        self.steps = 0

    def spawn(
        self, body: TaskletBody, name: str = "tasklet", delay_s: float = 0.0
    ) -> Tasklet:
        """Register a tasklet to first run ``delay_s`` from now."""
        tasklet = Tasklet(name, body)
        self._push(tasklet, self._wake_instant(tasklet, delay_s))
        return tasklet

    def _push(self, tasklet: Tasklet, wake_at: float) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap, (wake_at, self._rng.random(), self._seq, tasklet)
        )

    def _wake_instant(self, tasklet: Tasklet, yielded: Any) -> float:
        """The instant a tasklet's yielded sleep or :class:`WakeAt` means."""
        now = self.clock.now
        if isinstance(yielded, WakeAt):
            wake_at = float(yielded)
        elif yielded is None or yielded < 0:
            return now
        else:
            wake_at = now + yielded
        if not math.isfinite(wake_at):
            raise ValueError(
                f"tasklet {tasklet.name!r} yielded a non-finite wake "
                f"({yielded!r})"
            )
        return wake_at if wake_at > now else now

    @property
    def pending(self) -> int:
        """How many tasklet resumptions are scheduled."""
        return len(self._heap)

    def clear(self) -> int:
        """Drop every pending tasklet (simulated process death).

        Returns how many resumptions were abandoned.  Used by the
        gateway's crash scavenge: a dead front door's clients do not
        keep running into the recovered process.
        """
        abandoned = len(self._heap)
        self._heap.clear()
        return abandoned

    def next_poll(self, first: float, period: float) -> WakeAt:
        """The first instant worth waking at for a tasklet polling every ``period``.

        Walks the chain ``first``, ``first + period``, ... by repeated
        addition — the very sums a tasklet yielding ``period`` at each
        poll would produce — and stops at the first instant not before
        the horizon (the next pending resumption or clock watcher), where
        something other than the caller can have acted.  Within the
        current :meth:`run` it also stops at the last instant not after
        ``until``, which a polling tasklet would still have reached before
        the run returned.  Every instant skipped would have found the
        world exactly as the caller left it.
        """
        horizon = self.clock.next_watch()
        if self._heap and self._heap[0][0] < horizon:
            horizon = self._heap[0][0]
        bound = math.inf if self._until is None else self._until
        if horizon == math.inf and bound == math.inf:
            return WakeAt(first)  # nothing else can ever act: poll as asked
        wake = first
        while wake < horizon:
            following = wake + period
            if following > bound:
                break
            wake = following
        return WakeAt(wake)

    def run(self, until: Optional[float] = None) -> int:
        """Run tasklets until none remain (or the clock would pass ``until``).

        Returns the number of resumption steps executed.  With ``until``
        set, tasklets whose wake time lies beyond it stay queued, so a
        later :meth:`run` call can continue the same population.
        """
        self._until = until
        executed = 0
        while self._heap:
            wake_at = self._heap[0][0]
            if until is not None and wake_at > until:
                break
            __, __, __, tasklet = heapq.heappop(self._heap)
            self.clock.advance_to(wake_at)
            try:
                if tasklet._started:
                    yielded = tasklet._body.send(self.clock.now)
                else:
                    tasklet._started = True
                    yielded = next(tasklet._body)
            except StopIteration as stop:
                tasklet.done = True
                tasklet.result = stop.value
            else:
                self._push(tasklet, self._wake_instant(tasklet, yielded))
            executed += 1
            self.steps += 1
        return executed
