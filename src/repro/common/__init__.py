"""Shared kernel: errors, identifiers, the simulated clock, units and events.

Everything else in :mod:`repro` builds on this package.  It has no
dependencies on the rest of the codebase, so it can be imported from any
layer without creating cycles.
"""

from repro.common.clock import SimulatedClock
from repro.common.config import PolarisConfig
from repro.common.errors import (
    PolarisError,
    StorageError,
    TransactionAbortedError,
    WriteConflictError,
)
from repro.common.ids import MonotonicSequence, TransactionNames

__all__ = [
    "MonotonicSequence",
    "PolarisConfig",
    "PolarisError",
    "SimulatedClock",
    "StorageError",
    "TransactionAbortedError",
    "TransactionNames",
    "WriteConflictError",
]
