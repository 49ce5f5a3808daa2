"""The commit lock.

Step 2 of the validation phase acquires a commit lock "to ensure a
serializable order for the transaction to be committed" (Section 4.1.2).
The simulation is single-threaded, so mutual exclusion itself is free —
the lock's job here is protocol fidelity (asserting the critical section
is never re-entered) plus *contention modeling*: with a clock bound, the
lock keeps a ``busy_until`` horizon that each release pushes past the
present by the measured critical section plus :data:`COMMIT_HOLD_S`.
The next committer arriving before that horizon waits — the clock
advances to the horizon and the queueing shows up as a ``commit_lock``
wait — which is exactly how serialized commits throttle a concurrent
workload without threads.

With :data:`COMMIT_HOLD_S` at 0.0 the horizon never outruns the clock, no
waits occur and behaviour is byte-identical to the idealized
instantaneous critical section.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.common.clock import SimulatedClock
    from repro.telemetry.facade import Telemetry

#: Modeled service time of the commit critical section (simulated
#: seconds), added to the busy horizon on each release.
COMMIT_HOLD_S = 0.0


class CommitLock:
    """Non-reentrant mutual exclusion over the commit critical section."""

    def __init__(self, clock: "Optional[SimulatedClock]" = None) -> None:
        self._clock = clock
        self._holder: Optional[int] = None
        self.acquisitions = 0
        #: Simulated instant until which the lock is modeled busy.
        self.busy_until = 0.0
        self._acquired_at = 0.0
        self._telemetry: "Optional[Telemetry]" = None
        # The lock's one record of its waits and holds: sys.dm_commit_lock
        # reads them, and needs no collector.
        self.total_wait_s = 0.0
        self.total_hold_s = 0.0

    def configure(self, telemetry: "Optional[Telemetry]" = None) -> None:
        """Bind the telemetry that observes the lock.

        Called by :meth:`repro.fe.context.ServiceContext.create`; a bare
        engine keeps an unobserved lock.
        """
        self._telemetry = telemetry

    @contextmanager
    def held(self, txid: int) -> Iterator[None]:
        """Hold the lock for the duration of the ``with`` body.

        Acquiring before ``busy_until`` charges the difference to the
        simulated clock as a ``commit_lock`` wait; releasing pushes
        ``busy_until`` to ``now + COMMIT_HOLD_S``.
        """
        if self._holder is not None:
            raise AssertionError(
                f"commit lock re-entered: txn {txid} while held by {self._holder}"
            )
        clock = self._clock
        if clock is not None:
            wait_s = self.busy_until - clock.now
            if wait_s > 0:
                clock.advance(wait_s)
                self.total_wait_s += wait_s
                if self._telemetry is not None:
                    self._telemetry.record_wait("commit_lock", wait_s)
            self._acquired_at = clock.now
        self._holder = txid
        self.acquisitions += 1
        try:
            yield
        finally:
            self._holder = None
            if clock is not None:
                hold = (clock.now - self._acquired_at) + COMMIT_HOLD_S
                self.busy_until = self._acquired_at + hold
                self.total_hold_s += hold

    @property
    def is_held(self) -> bool:
        """Whether the lock is currently held."""
        return self._holder is not None

    @property
    def holder_txid(self) -> Optional[int]:
        """The txid of the current holder, or None when free."""
        return self._holder
