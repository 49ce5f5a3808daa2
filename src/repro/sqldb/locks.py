"""The commit lock.

Step 2 of the validation phase acquires a commit lock "to ensure a
serializable order for the transaction to be committed" (Section 4.1.2).
The simulation is single-threaded, so mutual exclusion itself is free —
the lock's job here is protocol fidelity (asserting the critical section
is never re-entered) plus *contention modeling*: with a clock bound, the
lock keeps a ``busy_until`` horizon that each release pushes past the
present by the measured critical section plus the configured
``txn.commit_hold_s`` service time.  The next committer arriving before
that horizon waits — the clock advances to the horizon and the queueing
shows up as a ``commit_lock`` wait — which is exactly how serialized
commits throttle a concurrent workload without threads.

With ``commit_hold_s`` at its 0.0 default the horizon never outruns the
clock, no waits occur and behaviour is byte-identical to the idealized
instantaneous critical section.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.common.clock import SimulatedClock
    from repro.telemetry.facade import Telemetry
    from repro.telemetry.metrics import MetricsRegistry


class CommitLock:
    """Non-reentrant mutual exclusion over the commit critical section."""

    def __init__(self, clock: "Optional[SimulatedClock]" = None) -> None:
        self._clock = clock
        self._holder: Optional[int] = None
        self.acquisitions = 0
        #: Modeled critical-section service time added on each release.
        self.hold_s = 0.0
        #: Simulated instant until which the lock is modeled busy.
        self.busy_until = 0.0
        self._acquired_at = 0.0
        self._telemetry: "Optional[Telemetry]" = None
        self._metrics: "Optional[MetricsRegistry]" = None
        # Local aggregates so sys.dm_commit_lock works without metrics.
        self.total_wait_s = 0.0
        self.total_hold_s = 0.0

    def configure(
        self, hold_s: float = 0.0, telemetry: "Optional[Telemetry]" = None
    ) -> None:
        """Bind the contention model and the telemetry that observes it.

        Called by :meth:`repro.fe.context.ServiceContext.create`; both
        parameters are optional so a bare engine keeps the idealized,
        unobserved lock.
        """
        self.hold_s = float(hold_s)
        self._telemetry = telemetry
        metering = telemetry is not None and telemetry.metering
        self._metrics = telemetry.metrics if metering else None

    @contextmanager
    def held(self, txid: int) -> Iterator[None]:
        """Hold the lock for the duration of the ``with`` body.

        Acquiring before ``busy_until`` charges the difference to the
        simulated clock as a ``commit_lock`` wait; releasing pushes
        ``busy_until`` to ``now + hold_s``.
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
                if self._metrics is not None:
                    self._metrics.histogram("sqldb.commit_lock_wait_s").observe(
                        wait_s
                    )
            self._acquired_at = clock.now
        self._holder = txid
        self.acquisitions += 1
        try:
            yield
        finally:
            self._holder = None
            if clock is not None:
                hold = (clock.now - self._acquired_at) + self.hold_s
                self.busy_until = self._acquired_at + hold
                self.total_hold_s += hold
                if self._metrics is not None:
                    self._metrics.counter("sqldb.commit_lock_acquisitions").inc()
                    self._metrics.histogram("sqldb.commit_lock_hold_s").observe(
                        hold
                    )

    @property
    def is_held(self) -> bool:
        """Whether the lock is currently held."""
        return self._holder is not None

    @property
    def holder_txid(self) -> Optional[int]:
        """The txid of the current holder, or None when free."""
        return self._holder
