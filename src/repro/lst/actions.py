"""The manifest action vocabulary.

Four actions describe every change a transaction can make to a table's
physical state (Section 3.2): add/remove a data file, add/remove a
deletion-vector file.  Updates are a deletion (DV change) plus an insertion
(new data file); compaction is removes plus adds in one transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple, Union


@dataclass(frozen=True)
class DataFileInfo:
    """Descriptor of one immutable data file as recorded in manifests."""

    #: Unique file name (a GUID plus extension); also the conflict unit for
    #: file-granularity conflict detection.
    name: str
    #: Full object-store path.
    path: str
    #: Physical row count in the file.
    num_rows: int
    #: Size of the file in bytes.
    size_bytes: int
    #: Hash distribution (bucket) this file's rows belong to; drives cell
    #: assignment in the DCP.
    distribution: int
    #: File-level zone maps: ``(column, min, max)`` triples recorded at
    #: write time.  Scans prune whole files against their predicates
    #: before any IO — the manifest-level analogue of Parquet row-group
    #: statistics, and what makes the partitioning function p(r) of
    #: Section 2.3 pay off for range retrieval.
    column_stats: Tuple[Tuple[str, Any, Any], ...] = ()
    #: crc32 checksum of the file's bytes as written (``crc32:xxxxxxxx``),
    #: mirrored from the blob metadata so the manifest is an independent
    #: witness: a swapped or rotted blob fails the cross-check even if its
    #: own metadata was rewritten.  Empty for pre-checksum manifests.
    checksum: str = ""

    def stats_for(self, column: str) -> "Tuple[Any, Any] | None":
        """(min, max) recorded for ``column``, or None."""
        for name, lo, hi in self.column_stats:
            if name == column:
                return lo, hi
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (manifest wire format)."""
        return {
            "name": self.name,
            "path": self.path,
            "num_rows": self.num_rows,
            "size_bytes": self.size_bytes,
            "distribution": self.distribution,
            "column_stats": [list(entry) for entry in self.column_stats],
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "DataFileInfo":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=raw["name"],
            path=raw["path"],
            num_rows=raw["num_rows"],
            size_bytes=raw["size_bytes"],
            distribution=raw["distribution"],
            column_stats=tuple(
                (entry[0], entry[1], entry[2])
                for entry in raw.get("column_stats", ())
            ),
            checksum=raw.get("checksum", ""),
        )


@dataclass(frozen=True)
class DeletionVectorInfo:
    """Descriptor of one immutable deletion-vector file."""

    #: Unique DV file name.
    name: str
    #: Full object-store path.
    path: str
    #: Name of the data file whose rows this DV marks deleted.
    target_file: str
    #: Number of deleted row positions recorded.
    cardinality: int
    #: Size of the DV file in bytes.
    size_bytes: int
    #: crc32 checksum of the DV file's bytes as written, mirrored from the
    #: blob metadata (see :attr:`DataFileInfo.checksum`).  Empty for
    #: pre-checksum manifests.
    checksum: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (manifest wire format)."""
        return {
            "name": self.name,
            "path": self.path,
            "target_file": self.target_file,
            "cardinality": self.cardinality,
            "size_bytes": self.size_bytes,
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "DeletionVectorInfo":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=raw["name"],
            path=raw["path"],
            target_file=raw["target_file"],
            cardinality=raw["cardinality"],
            size_bytes=raw["size_bytes"],
            checksum=raw.get("checksum", ""),
        )


@dataclass(frozen=True)
class AddDataFile:
    """The transaction adds a new immutable data file to the table."""

    file: DataFileInfo

    kind = "add_file"

    def to_dict(self) -> Dict[str, Any]:
        """One manifest line (JSON object)."""
        return {"action": self.kind, "file": self.file.to_dict()}


@dataclass(frozen=True)
class RemoveDataFile:
    """The transaction logically removes a data file (delete/compaction)."""

    file: DataFileInfo

    kind = "remove_file"

    def to_dict(self) -> Dict[str, Any]:
        """One manifest line (JSON object)."""
        return {"action": self.kind, "file": self.file.to_dict()}


@dataclass(frozen=True)
class AddDeletionVector:
    """The transaction attaches a (merged) DV to a data file."""

    dv: DeletionVectorInfo

    kind = "add_dv"

    def to_dict(self) -> Dict[str, Any]:
        """One manifest line (JSON object)."""
        return {"action": self.kind, "dv": self.dv.to_dict()}


@dataclass(frozen=True)
class RemoveDeletionVector:
    """The transaction removes a superseded DV file."""

    dv: DeletionVectorInfo

    kind = "remove_dv"

    def to_dict(self) -> Dict[str, Any]:
        """One manifest line (JSON object)."""
        return {"action": self.kind, "dv": self.dv.to_dict()}


Action = Union[AddDataFile, RemoveDataFile, AddDeletionVector, RemoveDeletionVector]


def action_from_dict(raw: Dict[str, Any]) -> Action:
    """Parse one serialized action."""
    kind = raw.get("action")
    if kind == AddDataFile.kind:
        return AddDataFile(DataFileInfo.from_dict(raw["file"]))
    if kind == RemoveDataFile.kind:
        return RemoveDataFile(DataFileInfo.from_dict(raw["file"]))
    if kind == AddDeletionVector.kind:
        return AddDeletionVector(DeletionVectorInfo.from_dict(raw["dv"]))
    if kind == RemoveDeletionVector.kind:
        return RemoveDeletionVector(DeletionVectorInfo.from_dict(raw["dv"]))
    raise ValueError(f"unknown manifest action {kind!r}")
