"""Data cells: the unit of parallelism (Section 2.3, Figure 2).

A table with a distribution column hashes each row into one of a number
of buckets recorded on the table at CREATE (:class:`Placement`, the
``d(r)`` of Figure 2); a table without one spreads rows round-robin.
Every data file is labelled with one bucket, its ``distribution``, and
the files of one label form a *cell* (we use one partition group, so a
cell is identified by its distribution number modulo the warehouse's
``distributions``).  A hash-placed file holds only rows of its label's
bucket; a *mixed* file (bulk-load output, and rewrites of mixed files)
holds rows of any bucket and only counts toward its label's cell.
Tasks are assigned disjoint sets of cells, which is what gives write
isolation across BE nodes (Section 4.3) — no two tasks ever touch the
same data file.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.lst.actions import DataFileInfo
from repro.lst.snapshot import TableSnapshot
from repro.pagefile.schema import NUMPY_DTYPES


@dataclass(frozen=True)
class Cell:
    """All live files of one table distribution."""

    table_id: int
    distribution: int
    files: tuple  # tuple[DataFileInfo, ...]; tuple keeps the cell hashable

    @property
    def num_rows(self) -> int:
        """Physical rows across the cell's files (before DV filtering)."""
        return sum(f.num_rows for f in self.files)

    @property
    def total_bytes(self) -> int:
        """Bytes across the cell's files."""
        return sum(f.size_bytes for f in self.files)


def cells_for_snapshot(
    table_id: int, snapshot: TableSnapshot, distributions: int
) -> List[Cell]:
    """Group a snapshot's live files into cells, one per distribution.

    Every distribution yields a cell even when empty — insert tasks target
    a distribution whether or not it currently holds files.
    """
    by_distribution: Dict[int, List[DataFileInfo]] = {
        d: [] for d in range(distributions)
    }
    for info in snapshot.files.values():
        by_distribution.setdefault(info.distribution % distributions, []).append(info)
    cells = []
    for distribution in sorted(by_distribution):
        files = sorted(by_distribution[distribution], key=lambda f: f.name)
        cells.append(
            Cell(table_id=table_id, distribution=distribution, files=tuple(files))
        )
    return cells


#: Knuth's multiplicative hash constant for int64 keys.
_MULTIPLIER = 2654435761


def distribution_of(values: np.ndarray, distributions: int) -> np.ndarray:
    """Hash distribution assignment for an array of key values.

    Uses a cheap deterministic integer/string hash; the only requirement is
    a stable, roughly uniform spread of rows across buckets.
    """
    if values.dtype.kind in ("i", "u"):
        return (values.astype(np.int64) * _MULTIPLIER % 2**31) % distributions
    # crc32 rather than hash(): Python string hashing is salted per process,
    # which would make cell assignment non-deterministic across runs.
    hashed = np.fromiter(
        (zlib.crc32(str(v).encode("utf-8")) for v in values),
        dtype=np.int64,
        count=len(values),
    )
    return hashed % distributions


_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Placement:
    """How a table hashes rows into buckets: ``d(r)`` of Figure 2.

    ``column`` is the distribution column, ``type`` its logical type and
    ``buckets`` the bucket count recorded on the table when it was
    created (a backup restored into a warehouse with other
    ``distributions`` still hashes with it).
    """

    column: str
    type: str
    buckets: int

    def buckets_of(self, keys: Any) -> np.ndarray:
        """Each key's bucket, hashed as the key will be stored: cast to the
        column's type first, as the page file writer casts it (a float
        ``5.0`` written to an int64 column is stored, and so hashed, as
        ``5``)."""
        return distribution_of(
            np.asarray(keys, dtype=NUMPY_DTYPES[self.type]), self.buckets
        )

    def bucket_of(self, literal: Any) -> Optional[int]:
        """The one bucket a row whose key ``==`` ``literal`` can be in, or
        None when the literal's type does not let the hash decide.

        Only a literal of exactly the column's type qualifies: an int
        (numpy ints included, bools not) in int64 range for an int64
        column, a str for a string column.  ``5.0`` equals the int 5 but
        does not hash like it, and a float column never qualifies
        (``-0.0 == 0.0`` and NaN hash apart from what they equal).  The
        hash is :func:`distribution_of`'s, computed on the one scalar (a
        lookup pays no array round trip).
        """
        if self.type == "int64":
            if isinstance(literal, (bool, np.bool_)) or not isinstance(
                literal, (int, np.integer)
            ):
                return None
            key = int(literal)
            if not _INT64.min <= key <= _INT64.max:
                return None
            # numpy's int64 product wraps modulo 2**64, a multiple of 2**31,
            # and both % floor: the exact product leaves the same residue.
            return key * _MULTIPLIER % 2**31 % self.buckets
        if self.type == "string" and isinstance(literal, str):
            try:
                return zlib.crc32(str(literal).encode("utf-8")) % self.buckets
            except UnicodeEncodeError:
                return None  # no stored row encodes like it, so none equals it
        return None

    def bucket_of_rows(self, keys: np.ndarray) -> Optional[int]:
        """The bucket every key of ``keys`` hashes to, or None when they
        span several (or there are none)."""
        buckets = self.buckets_of(keys)
        if len(buckets) and (buckets == buckets[0]).all():
            return int(buckets[0])
        return None
