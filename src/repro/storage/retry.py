"""Retry policy for FE-side storage operations.

BE-side storage faults are handled by the DCP's task-level retry
(Section 4.3).  Operations the FE itself issues against the object store —
manifest flushes, checkpoint reads, metadata loads — sit outside any task,
so they carry their own bounded retry against transient faults, as any
production front end would.

Failed attempts back off exponentially with seeded jitter, and the backoff
is charged to the deployment's :class:`~repro.common.clock.SimulatedClock`
(when one is supplied) so retry storms cost simulated time exactly like
they cost wall time in production.  The jitter PRNG is seeded from the
deployment seed plus the operation label, so every run is repeatable.

When a :class:`~repro.telemetry.facade.Telemetry` is supplied, every
failed attempt is recorded as a span event (including the backoff charged
before the next attempt) plus a retry-attempt counter, and the final
outcome (recovered vs. exhausted) is counted — so injected storage faults
are visible in traces rather than silently absorbed.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from repro.common.clock import SimulatedClock
from repro.common.config import StorageConfig
from repro.common.errors import IntegrityError, TransientStorageError

if TYPE_CHECKING:
    from repro.telemetry.facade import Telemetry

T = TypeVar("T")

DEFAULT_ATTEMPTS = 5


def backoff_schedule(
    attempts: int,
    config: Optional[StorageConfig] = None,
    seed: int = 0,
    label: str = "storage",
) -> "list[float]":
    """The per-failure backoff delays (seconds) a retried operation charges.

    Entry ``i`` is the delay after the ``i+1``-th failed attempt: an
    exponential ``base * 2**i`` capped at the configured maximum, scaled
    by a jitter factor in ``[1-jitter, 1+jitter]`` drawn from a PRNG
    seeded by ``(seed, label)``.  The final failure gets no delay (there
    is no further attempt to wait for).
    """
    config = config or StorageConfig()
    rng = Random(f"{seed}:{label}")
    delays = []
    for attempt in range(1, attempts + 1):
        if attempt == attempts:
            delays.append(0.0)
            continue
        raw = min(
            config.retry_base_backoff_s * (2 ** (attempt - 1)),
            config.retry_max_backoff_s,
        )
        factor = 1.0 + config.retry_jitter * (2.0 * rng.random() - 1.0)
        delays.append(raw * factor)
    return delays


def with_retries(
    operation: Callable[[], T],
    attempts: int = DEFAULT_ATTEMPTS,
    telemetry: "Optional[Telemetry]" = None,
    label: str = "storage",
    clock: Optional[SimulatedClock] = None,
    config: Optional[StorageConfig] = None,
    seed: int = 0,
) -> T:
    """Run ``operation``, retrying on :class:`TransientStorageError`.

    Re-raises the last error once ``attempts`` are exhausted.  ``label``
    names the logical operation in telemetry (e.g. ``manifest_flush``).
    With a ``clock``, the exponential backoff between attempts (see
    :func:`backoff_schedule`, parameterized by ``config``/``seed``) is
    charged as simulated time; without one the retries are immediate but
    the would-be backoff is still recorded in telemetry.

    :class:`~repro.common.errors.IntegrityError` is explicitly *not*
    retryable in place: re-reading a corrupt blob yields the same corrupt
    bytes, so it propagates immediately for the scrubber to repair.
    """
    delays = backoff_schedule(attempts, config, seed, label)
    last: TransientStorageError | None = None
    for attempt in range(1, attempts + 1):
        try:
            result = operation()
        except IntegrityError:
            # Non-retryable: the same bytes come back on every attempt.
            raise
        except TransientStorageError as exc:
            last = exc
            backoff_s = delays[attempt - 1]
            if telemetry is not None:
                telemetry.retry_attempt(label, attempt, exc, backoff_s=backoff_s)
            if clock is not None and backoff_s > 0:
                if telemetry is not None:
                    # The backoff is a stall the caller genuinely suffers;
                    # charge it to the wait stats as the clock advances.
                    with telemetry.waiting("storage_retry"):
                        clock.advance(backoff_s)
                else:
                    clock.advance(backoff_s)
            continue
        if telemetry is not None and attempt > 1:
            telemetry.retry_outcome(label, attempt, succeeded=True)
        return result
    assert last is not None
    if telemetry is not None:
        telemetry.retry_outcome(label, attempts, succeeded=False)
    raise last
