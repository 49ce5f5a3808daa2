"""The manifest action vocabulary.

Four actions describe every change a transaction can make to a table's
physical state (Section 3.2): add/remove a data file, add/remove a
deletion-vector file.  Updates are a deletion (DV change) plus an insertion
(new data file); compaction is removes plus adds in one transaction.

An add carries the file's whole descriptor; a remove only names the file
it retires (and, for a DV, the data file it is attached to), since the
table that replays it already holds that descriptor.
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
    #: The bucket this file is labelled with; drives cell assignment in
    #: the DCP.  Unless :attr:`mixed`, every row's distribution-column
    #: value hashes to it under the table's placement (which is what lets
    #: an equality predicate on that column skip other buckets' files).
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
    #: own metadata was rewritten.
    checksum: str = ""
    #: True when the file's rows may hash to any bucket: bulk-load output
    #: (placed one source file per cell), and an UPDATE's or compaction's
    #: output whose rows span buckets.  Written to the wire only when set,
    #: so hash-placed files' lines carry no marker.
    mixed: bool = False

    def stats_for(self, column: str) -> "Tuple[Any, Any] | None":
        """(min, max) recorded for ``column``, or None."""
        for name, lo, hi in self.column_stats:
            if name == column:
                return lo, hi
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (manifest wire format)."""
        out = {
            "name": self.name,
            "path": self.path,
            "num_rows": self.num_rows,
            "size_bytes": self.size_bytes,
            "distribution": self.distribution,
            "column_stats": [list(entry) for entry in self.column_stats],
            "checksum": self.checksum,
        }
        if self.mixed:
            out["mixed"] = True
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "DataFileInfo":
        """Inverse of :meth:`to_dict`."""
        # The writer puts the marker only on mixed files, and only as true.
        if raw.get("mixed", True) is not True:
            raise ValueError(f"mixed must be true when present, not {raw['mixed']!r}")
        return cls(
            name=_text(raw, "name"),
            path=raw["path"],
            num_rows=raw["num_rows"],
            size_bytes=raw["size_bytes"],
            distribution=raw["distribution"],
            column_stats=tuple(
                (entry[0], entry[1], entry[2]) for entry in raw["column_stats"]
            ),
            checksum=raw["checksum"],
            mixed="mixed" in raw,
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
    #: blob metadata (see :attr:`DataFileInfo.checksum`).
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
            name=_text(raw, "name"),
            path=raw["path"],
            target_file=_text(raw, "target_file"),
            cardinality=raw["cardinality"],
            size_bytes=raw["size_bytes"],
            checksum=raw["checksum"],
        )


@dataclass(frozen=True)
class AddDataFile:
    """The transaction adds a new immutable data file to the table."""

    file: DataFileInfo

    kind = "add_file"

    def to_dict(self) -> Dict[str, Any]:
        """One action of a manifest block (JSON object)."""
        return {"action": self.kind, "file": self.file.to_dict()}


@dataclass(frozen=True)
class RemoveDataFile:
    """The transaction logically removes a data file (delete/compaction).

    Only the name travels: the table's live descriptor already holds
    everything else about the file (path, zone maps, checksum).
    """

    name: str

    kind = "remove_file"

    def to_dict(self) -> Dict[str, Any]:
        """One action of a manifest block (JSON object)."""
        return {"action": self.kind, "name": self.name}


@dataclass(frozen=True)
class AddDeletionVector:
    """The transaction attaches a (merged) DV to a data file."""

    dv: DeletionVectorInfo

    kind = "add_dv"

    def to_dict(self) -> Dict[str, Any]:
        """One action of a manifest block (JSON object)."""
        return {"action": self.kind, "dv": self.dv.to_dict()}


@dataclass(frozen=True)
class RemoveDeletionVector:
    """The transaction removes a superseded DV file: the DV named ``name``
    currently attached to data file ``target_file``."""

    name: str
    target_file: str

    kind = "remove_dv"

    def to_dict(self) -> Dict[str, Any]:
        """One action of a manifest block (JSON object)."""
        return {"action": self.kind, "name": self.name, "target_file": self.target_file}


Action = Union[AddDataFile, RemoveDataFile, AddDeletionVector, RemoveDeletionVector]


def action_from_dict(raw: Dict[str, Any]) -> Action:
    """Parse one serialized action."""
    kind = raw.get("action")
    if kind == AddDataFile.kind:
        return AddDataFile(DataFileInfo.from_dict(raw["file"]))
    if kind == RemoveDataFile.kind:
        return RemoveDataFile(_text(raw, "name"))
    if kind == AddDeletionVector.kind:
        return AddDeletionVector(DeletionVectorInfo.from_dict(raw["dv"]))
    if kind == RemoveDeletionVector.kind:
        return RemoveDeletionVector(_text(raw, "name"), _text(raw, "target_file"))
    raise ValueError(f"unknown manifest action {kind!r}")


def _text(raw: Dict[str, Any], key: str) -> str:
    """``raw[key]``, which must be a string: names are the keys replay
    looks files up by, so anything else would fail there, not here."""
    value = raw[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, not {type(value).__name__}")
    return value
