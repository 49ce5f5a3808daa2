"""Fault injection for storage requests.

The Polaris DCP's resilience story (Section 4.3: task restart, stale-block
discard, garbage collection of orphans) is only testable if the substrate
can actually fail.  :class:`FaultInjector` fails a configurable fraction of
requests with :class:`~repro.common.errors.TransientStorageError`, from a
seeded PRNG so failures are reproducible.  Rates can be overridden per
store operation (:data:`OPERATION_FAILURE_RATES`), and tests can arm targeted
counted failures matched by path substring — fail the next N matching
requests, one-shot being the N=1 default.  Every injected fault bumps
:attr:`FaultInjector.injected`, which the object store mirrors into the
``storage.faults_injected`` telemetry counter.

Beyond transient request failure, the injector arms *corruption* faults
(:data:`CORRUPTION_KINDS`): bit-flip, torn-write (a strict prefix of the
payload persists), and stale-read (the previous version of the blob is
served once).  These do not raise — they hand the object store wrong
bytes, which is exactly the failure checksums exist to catch.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional

from repro.common.config import StorageConfig
from repro.common.errors import TransientStorageError

#: The corruption fault classes :meth:`FaultInjector.arm_corruption` accepts.
CORRUPTION_KINDS = ("bit_flip", "torn_write", "stale_read")

#: Per-operation overrides of ``StorageConfig.transient_failure_rate``,
#: keyed by the store operation name (``put``, ``get``,
#: ``commit_block_list``, ...).
OPERATION_FAILURE_RATES: Mapping[str, float] = MappingProxyType({})
#: Seed for the fault-injection PRNG.
FAILURE_SEED = 7


@dataclass
class _ArmedFault:
    """One armed targeted failure: match pattern plus remaining budget."""

    path_substring: str
    operation: str | None
    remaining: int


@dataclass
class _ArmedCorruption:
    """One armed corruption: kind, match pattern, remaining budget."""

    kind: str
    path_substring: str
    operation: str | None
    remaining: int


class FaultInjector:
    """Decides, per request, whether to raise a transient fault."""

    def __init__(self, config: StorageConfig) -> None:
        self._rate = config.transient_failure_rate
        self._operation_rates = dict(OPERATION_FAILURE_RATES)
        self._rng = random.Random(FAILURE_SEED)
        self._seed = FAILURE_SEED
        self._armed: List[_ArmedFault] = []
        self._armed_corruptions: List[_ArmedCorruption] = []
        self._corruption_nonce = 0
        #: Total faults injected so far (armed + random).
        self.injected = 0
        #: Total corruption faults applied so far.
        self.corrupted = 0

    def arm(
        self,
        path_substring: str,
        operation: str | None = None,
        count: int = 1,
    ) -> None:
        """Arm a counted failure: the next ``count`` matching requests fail.

        ``count=1`` (the default) keeps the historical one-shot semantics.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        self._armed.append(_ArmedFault(path_substring, operation, count))

    def arm_corruption(
        self,
        kind: str,
        path_substring: str,
        operation: str | None = None,
        count: int = 1,
    ) -> None:
        """Arm a corruption: the next ``count`` matching requests get bad bytes.

        ``kind`` is one of :data:`CORRUPTION_KINDS`.  ``stale_read`` only
        makes sense on the read path, so it must be armed for ``get``.
        Corruptions armed on write operations (``put`` /
        ``commit_block_list``) are *persisted* — they model at-rest rot the
        scrubber must find; corruptions on ``get`` are a transient wrong
        view of an intact blob.
        """
        if kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {kind!r}; expected one of "
                f"{CORRUPTION_KINDS}"
            )
        if kind == "stale_read" and operation not in (None, "get"):
            raise ValueError("stale_read corruption only applies to 'get'")
        if count < 1:
            raise ValueError("count must be >= 1")
        if kind == "stale_read":
            operation = "get"
        self._armed_corruptions.append(
            _ArmedCorruption(kind, path_substring, operation, count)
        )

    def corruption_for(self, operation: str, path: str) -> Optional[str]:
        """Consume and return the armed corruption kind for this request.

        Returns ``None`` (the overwhelmingly common case) when no armed
        corruption matches.  Matching consumes one unit of the armed
        budget and bumps :attr:`corrupted`, mirroring how transient faults
        bump :attr:`injected`.
        """
        for index, fault in enumerate(self._armed_corruptions):
            op_matches = fault.operation is None or fault.operation == operation
            if fault.path_substring in path and op_matches:
                fault.remaining -= 1
                if fault.remaining <= 0:
                    del self._armed_corruptions[index]
                self.corrupted += 1
                return fault.kind
        return None

    def corrupt_payload(self, kind: str, path: str, data: bytes) -> bytes:
        """Deterministically damage ``data`` according to ``kind``.

        The damage PRNG is seeded from the injector seed, the path, and a
        per-call nonce, so a given run is exactly repeatable while repeated
        corruptions of the same path still differ.  ``stale_read`` is not a
        payload transform (the store serves the previous version instead)
        and is rejected here.
        """
        if kind == "stale_read":
            raise ValueError("stale_read is applied by the store, not here")
        self._corruption_nonce += 1
        rng = random.Random(f"{self._seed}:corrupt:{path}:{self._corruption_nonce}")
        if kind == "bit_flip":
            if not data:
                return data
            damaged = bytearray(data)
            position = rng.randrange(len(damaged))
            damaged[position] ^= 1 << rng.randrange(8)
            return bytes(damaged)
        if kind == "torn_write":
            # A strict prefix: at least zero, strictly fewer than all bytes.
            keep = rng.randrange(len(data)) if data else 0
            return data[:keep]
        raise ValueError(f"unknown corruption kind {kind!r}")

    @property
    def armed_remaining(self) -> int:
        """Total failures still armed across all patterns."""
        return sum(fault.remaining for fault in self._armed)

    def quiesce(self) -> None:
        """Stop all randomized injection (armed counted faults persist).

        Chaos harnesses call this before their final verification pass:
        the invariant battery must observe the store, not fight it.
        """
        self._rate = 0.0
        self._operation_rates.clear()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Inject no random faults while the block runs (armed counted
        faults persist): a harness reads the state it checks through it."""
        rate, rates = self._rate, self._operation_rates
        self._rate, self._operation_rates = 0.0, {}
        try:
            yield
        finally:
            self._rate, self._operation_rates = rate, rates

    def rate_for(self, operation: str) -> float:
        """The effective random failure rate for one store operation."""
        return self._operation_rates.get(operation, self._rate)

    def check(self, operation: str, path: str) -> None:
        """Raise :class:`TransientStorageError` if this request must fail."""
        for index, fault in enumerate(self._armed):
            op_matches = fault.operation is None or fault.operation == operation
            if fault.path_substring in path and op_matches:
                fault.remaining -= 1
                if fault.remaining <= 0:
                    del self._armed[index]
                self.injected += 1
                raise TransientStorageError(
                    f"injected counted fault: {operation} {path}"
                )
        rate = self.rate_for(operation)
        if rate > 0 and self._rng.random() < rate:
            self.injected += 1
            raise TransientStorageError(f"injected random fault: {operation} {path}")
