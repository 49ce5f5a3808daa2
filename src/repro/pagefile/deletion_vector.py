"""Deletion vectors: compressed bitmaps of deleted row positions.

A deletion vector (DV) marks rows of one immutable data file as logically
deleted (merge-on-read, Section 2.1).  DV files are themselves immutable:
when a transaction deletes more rows from a file that already has a DV, it
writes a *merged* DV file and the manifest removes the old one and adds the
new one (the X2 example in Section 4.2).

The on-disk form is a zlib-compressed, delta-encoded ``uint32`` position
list — compact for both sparse and dense vectors at the scales we run.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import FileFormatError
from repro.pagefile.encoding import inflate

_MAGIC = b"RDV1"


class DeletionVector:
    """An immutable, sorted set of deleted row positions."""

    __slots__ = ("_positions",)

    def __init__(self, positions: Iterable[int] = ()) -> None:
        arr = np.fromiter(positions, dtype=np.int64)
        if len(arr):
            arr = np.unique(arr)
            if arr[0] < 0:
                raise ValueError("row positions must be non-negative")
        self._positions = arr.astype(np.uint32)

    # -- queries -------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of deleted rows."""
        return len(self._positions)

    @property
    def positions(self) -> np.ndarray:
        """Sorted array of deleted positions (a copy)."""
        return self._positions.copy()

    def contains(self, position: int) -> bool:
        """Whether ``position`` is marked deleted."""
        idx = np.searchsorted(self._positions, position)
        return bool(idx < len(self._positions) and self._positions[idx] == position)

    def positions_in_range(self, start: int, stop: int) -> np.ndarray:
        """Deleted positions ``p`` with ``start <= p < stop``."""
        lo = np.searchsorted(self._positions, start, side="left")
        hi = np.searchsorted(self._positions, stop, side="left")
        return self._positions[lo:hi].astype(np.int64)

    def __iter__(self) -> Iterator[int]:
        return iter(int(p) for p in self._positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeletionVector):
            return NotImplemented
        return np.array_equal(self._positions, other._positions)

    def __repr__(self) -> str:
        return f"DeletionVector(cardinality={self.cardinality})"

    # -- algebra -------------------------------------------------------------

    def union(self, other: "DeletionVector") -> "DeletionVector":
        """Merged vector: rows deleted by either input.

        This is the merge the write path performs when a delete hits a file
        that already carries a DV.
        """
        merged = DeletionVector()
        merged._positions = np.union1d(self._positions, other._positions)
        return merged

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the immutable DV file format."""
        if len(self._positions):
            deltas = np.diff(self._positions.astype(np.int64), prepend=0)
            payload = zlib.compress(deltas.astype(np.uint32).tobytes(), 1)
        else:
            payload = zlib.compress(b"", 1)
        return _MAGIC + struct.pack("<I", len(self._positions)) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeletionVector":
        """Parse DV file bytes; anything malformed raises
        :class:`FileFormatError`."""
        if len(data) < 8 or data[:4] != _MAGIC:
            raise FileFormatError("not a deletion vector file (bad magic)")
        (count,) = struct.unpack_from("<I", data, 4)
        try:
            raw = inflate(data[8:], "payload")
        except FileFormatError as exc:
            raise FileFormatError(f"deletion vector: {exc}") from None
        if len(raw) % 4:
            raise FileFormatError(
                f"deletion vector: {len(raw)} payload bytes are not whole uint32 deltas"
            )
        deltas = np.frombuffer(raw, dtype=np.uint32).astype(np.int64)
        if len(deltas) != count:
            raise FileFormatError(
                f"deletion vector: expected {count} positions, got {len(deltas)}"
            )
        dv = cls()
        dv._positions = np.cumsum(deltas).astype(np.uint32) if count else np.empty(
            0, dtype=np.uint32
        )
        return dv
