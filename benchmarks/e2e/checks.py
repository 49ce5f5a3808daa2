"""Answer checks: order-insensitive result checksums.

A query result is reduced to ``(rows, checksum)`` where the checksum is
the wrapping sum of one 64-bit hash per row, so row order does not matter
and a vectorised operator that sums in another order still matches:
floats are quantised to 2**-20 relative (about 1e-6) before hashing.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix(values: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser over a uint64 array (wraps by design)."""
    with np.errstate(over="ignore"):
        values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return values ^ (values >> np.uint64(31))


def _column_hashes(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        mantissa, exponent = np.frexp(values.astype(np.float64))
        quantised = np.round(mantissa * (1 << 20)).astype(np.int64)
        return (quantised * 4096 + exponent).astype(np.int64).view(np.uint64)
    if values.dtype.kind in "iub":
        return values.astype(np.int64).view(np.uint64)
    # Strings (object dtype): crc32 is stable across processes, unlike hash().
    return np.fromiter(
        (zlib.crc32(str(v).encode("utf-8")) for v in values),
        dtype=np.uint64,
        count=len(values),
    )


def batch_checksum(batch: Dict[str, np.ndarray]) -> Tuple[int, int]:
    """``(row count, order-insensitive checksum)`` of a result batch."""
    rows = 0
    row_hash = None
    for index, name in enumerate(sorted(batch)):
        values = np.asarray(batch[name])
        rows = len(values)
        column = _mix(_column_hashes(values) + np.uint64(index + 1))
        with np.errstate(over="ignore"):
            row_hash = column if row_hash is None else _mix(row_hash + column)
    if row_hash is None or rows == 0:
        return rows, 0
    with np.errstate(over="ignore"):
        return rows, int(np.sum(row_hash, dtype=np.uint64) & _MASK)
