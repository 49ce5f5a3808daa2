"""Z-ordering: Morton codes for composite sort keys (Section 2.3).

"We use Z-Ordering to support range-based retrieval over a (composite)
key."  For a single key, plain sorting suffices (and is what the write
path does); for composite keys, rows are ordered by the *Morton code* —
the bit-interleaving of the keys' ranks — so that files and row groups
stay selective for range predicates on **any** of the participating
columns, not just the leading one.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

#: Bits per dimension; 21 bits × 3 dims fits a 63-bit signed integer.
_BITS = 21


def _rank_normalize(values: np.ndarray) -> np.ndarray:
    """Map values to *dense* ranks scaled into the ``_BITS``-bit range.

    Dense ranking (equal values share one rank) rather than min/max
    scaling keeps the code distribution uniform regardless of value skew
    and keeps tied columns from injecting arbitrary order; string columns
    work too, since only ordering matters.
    """
    if len(values) <= 1:
        return np.zeros(len(values), dtype=np.uint64)
    distinct_values, ranks = np.unique(values, return_inverse=True)
    distinct = len(distinct_values)
    if distinct <= 1:
        return np.zeros(len(values), dtype=np.uint64)
    scale = ((1 << _BITS) - 1) / (distinct - 1)
    return (ranks * scale).astype(np.uint64)


def _spread_bits(values: np.ndarray, stride: int) -> np.ndarray:
    """Insert ``stride - 1`` zero bits between consecutive bits."""
    out = np.zeros(len(values), dtype=np.uint64)
    for bit in range(_BITS):
        out |= ((values >> np.uint64(bit)) & np.uint64(1)) << np.uint64(bit * stride)
    return out


def morton_codes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Morton (Z-curve) codes for up to three key columns."""
    if not 1 <= len(columns) <= 3:
        raise ValueError("z-ordering supports 1 to 3 key columns")
    stride = len(columns)
    code = np.zeros(len(columns[0]), dtype=np.uint64)
    for dim, values in enumerate(columns):
        normalized = _rank_normalize(np.asarray(values))
        code |= _spread_bits(normalized, stride) << np.uint64(dim)
    return code


def zorder_permutation(batch: Dict[str, np.ndarray], keys: Sequence[str]) -> np.ndarray:
    """Row permutation ordering ``batch`` along the Z-curve of ``keys``."""
    codes = morton_codes([batch[key] for key in keys])
    return np.argsort(codes, kind="stable")
