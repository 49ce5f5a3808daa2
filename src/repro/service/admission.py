"""Admission control: token buckets, bounded class queues, load shedding.

The gateway separates transactional from analytical traffic end-to-end
(the paper's WP3 isolation, Fig. 12): each workload class gets its own
bounded FIFO-within-priority queue, and dispatch alternates between the
classes with a weighted round-robin so trickle ingestion is never starved
by long scans.  Per-tenant token buckets bound each tenant's arrival
rate; when a bucket is dry or a queue is full the request is *shed* with
a seeded retry-after hint rather than being allowed to collapse the
admitted requests' tail latency.

Every admit/shed decision is appended to :attr:`AdmissionController.decision_log`
in a canonical text form, which the determinism tests compare
byte-for-byte across runs.
"""

from __future__ import annotations

from collections import deque
from random import Random
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.clock import SimulatedClock

#: The two workload classes the gateway isolates (WP3).
WORKLOAD_CLASSES = ("transactional", "analytical")

#: Bounded queue capacity per workload class.
QUEUE_CAPACITY = 64
#: Queued requests older than this are timed out at dispatch (seconds).
QUEUE_DEADLINE_S = 30.0
#: Token-bucket refill rate per tenant (tokens per simulated second).
TOKENS_PER_S = 10.0
#: Token-bucket burst capacity per tenant.
TOKEN_BURST = 20.0
#: Token cost of one transactional request.
TRANSACTIONAL_TOKEN_COST = 1.0
#: Token cost of one analytical request (scans are heavier).
ANALYTICAL_TOKEN_COST = 4.0
#: Weighted round-robin: transactional dispatches per analytical one.
TRANSACTIONAL_SHARE = 2
#: Base retry-after hint returned with shed requests (seconds).
RETRY_AFTER_BASE_S = 1.0
#: Jitter fraction applied to retry-after hints (0 = none, 0.5 = ±50%).
RETRY_AFTER_JITTER = 0.25


class TokenBucket:
    """A per-tenant token bucket refilled from the simulated clock."""

    def __init__(self, clock: SimulatedClock, rate: float, burst: float) -> None:
        self._clock = clock
        self._rate = rate
        self._burst = burst
        self._tokens = burst
        self._refilled_at = clock.now

    def _refill(self) -> None:
        now = self._clock.now
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self._burst, self._tokens + elapsed * self._rate)
            self._refilled_at = now

    @property
    def tokens(self) -> float:
        """Tokens currently available (after refilling to now)."""
        self._refill()
        return self._tokens

    def try_take(self, cost: float) -> bool:
        """Consume ``cost`` tokens if available; False when the bucket is dry."""
        self._refill()
        if self._tokens + 1e-12 >= cost:
            self._tokens -= cost
            return True
        return False


class AdmissionController:
    """Admits, queues, sheds, and orders requests ahead of dispatch.

    Queues are bounded deques per workload class holding
    ``(-priority, seq, request)`` entries kept sorted on insert, so a
    higher ``priority`` dispatches first and ties break by admission
    order.  :meth:`next_request` implements the weighted round-robin
    between classes and lazily expires requests whose queue deadline
    passed before they could start.
    """

    def __init__(self, clock: SimulatedClock, seed: int = 0) -> None:
        self._clock = clock
        self._rng = Random(f"admission:{seed}")
        self._buckets: Dict[str, TokenBucket] = {}
        self._queues: Dict[str, Deque[Tuple[int, int, object]]] = {
            cls: deque() for cls in WORKLOAD_CLASSES
        }
        self._seq = 0
        #: Transactional dispatches remaining before one analytical turn.
        self._txn_credits = TRANSACTIONAL_SHARE
        #: Canonical text record of every admit/shed decision (determinism
        #: witness: two same-seed runs must produce identical logs).
        self.decision_log: List[str] = []

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self._clock, TOKENS_PER_S, TOKEN_BURST)
            self._buckets[tenant] = bucket
        return bucket

    def _token_cost(self, workload_class: str) -> float:
        if workload_class == "transactional":
            return TRANSACTIONAL_TOKEN_COST
        return ANALYTICAL_TOKEN_COST

    def retry_after(self) -> float:
        """A seeded, jittered backoff hint for a shed request."""
        return RETRY_AFTER_BASE_S * (
            1.0 + RETRY_AFTER_JITTER * self._rng.uniform(-1.0, 1.0)
        )

    def queue_depth(self, workload_class: Optional[str] = None) -> int:
        """Queued requests in one class, or across both when None."""
        if workload_class is not None:
            return len(self._queues[workload_class])
        return sum(len(q) for q in self._queues.values())

    def admit(
        self, tenant: str, workload_class: str, priority: int, request: object
    ) -> Optional[Tuple[str, float]]:
        """Try to enqueue a request; ``None`` on success, else a shed verdict.

        Returns ``(reason, retry_after_s)`` when the request is shed,
        where ``reason`` is ``"rate_limited"`` or ``"queue_full"``.
        """
        now = self._clock.now
        queue = self._queues[workload_class]
        if not self._bucket(tenant).try_take(self._token_cost(workload_class)):
            hint = self.retry_after()
            self.decision_log.append(
                f"{now:.6f} shed rate_limited tenant={tenant} "
                f"class={workload_class} retry_after={hint:.6f}"
            )
            return ("rate_limited", hint)
        if len(queue) >= QUEUE_CAPACITY:
            hint = self.retry_after()
            self.decision_log.append(
                f"{now:.6f} shed queue_full tenant={tenant} "
                f"class={workload_class} retry_after={hint:.6f}"
            )
            return ("queue_full", hint)
        self._seq += 1
        entry = (-priority, self._seq, request)
        # Bounded queues are short; insertion-sort keeps (priority, seq)
        # order without a heap's tie-break subtleties.
        position = len(queue)
        for i, existing in enumerate(queue):
            if entry[:2] < existing[:2]:
                position = i
                break
        queue.insert(position, entry)
        self.decision_log.append(
            f"{now:.6f} admit tenant={tenant} class={workload_class} "
            f"priority={priority} seq={self._seq} depth={len(queue)}"
        )
        return None

    def _pop_live(
        self, workload_class: str, expired: List[object]
    ) -> Optional[object]:
        """Pop the next non-expired request from one class queue."""
        queue = self._queues[workload_class]
        deadline = QUEUE_DEADLINE_S
        now = self._clock.now
        while queue:
            __, __, request = queue.popleft()
            if now - getattr(request, "submitted_at", now) > deadline:
                expired.append(request)
                continue
            return request
        return None

    def next_request(self) -> Tuple[Optional[object], List[object]]:
        """The next request to dispatch plus any deadline-expired ones.

        Applies the weighted round-robin: :data:`TRANSACTIONAL_SHARE`
        transactional dispatches are served for every analytical one, but
        an empty class forfeits its turn rather than blocking the other.
        """
        expired: List[object] = []
        if self._txn_credits > 0:
            order = ("transactional", "analytical")
        else:
            order = ("analytical", "transactional")
        for workload_class in order:
            request = self._pop_live(workload_class, expired)
            if request is not None:
                if workload_class == "transactional":
                    self._txn_credits -= 1
                    if self._txn_credits < 0:
                        self._txn_credits = 0
                else:
                    self._txn_credits = TRANSACTIONAL_SHARE
                return request, expired
        return None, expired

    def drain(self) -> List[object]:
        """Remove and return every queued request (recovery scavenge)."""
        drained: List[object] = []
        for workload_class in WORKLOAD_CLASSES:
            queue = self._queues[workload_class]
            while queue:
                drained.append(queue.popleft()[2])
        return drained
