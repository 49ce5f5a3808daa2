"""Snapshot reconstruction: replaying manifests into table state.

A :class:`TableSnapshot` is the value of a table as of a sequence id: the
set of live data files and the current deletion vector (if any) of each.
Replay is deterministic — the core invariant the property tests exercise
is that *checkpoint + tail replay ≡ full replay*.

A snapshot records no history: a removed file or DV simply leaves it.
What garbage collection must keep for older readers it finds by
reachability — the state at its horizon plus what the manifest tail
adds (:mod:`repro.sto.gc`) — so neither a snapshot nor a checkpoint of
it grows with the table's age.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import FileFormatError
from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
)


@dataclass
class TableSnapshot:
    """Immutable-by-convention reconstructed state of one table.

    ``apply_manifest`` returns a *new* snapshot, leaving the receiver
    untouched, so cached snapshots can be shared across readers at
    different sequence ids.
    """

    #: Sequence id of the last manifest applied (0 = empty table).
    sequence_id: int = 0
    #: Live data files by file name.
    files: Dict[str, DataFileInfo] = field(default_factory=dict)
    #: Current deletion vector per data file name.
    dvs: Dict[str, DeletionVectorInfo] = field(default_factory=dict)

    # -- derived metrics ----------------------------------------------------

    @property
    def live_rows(self) -> int:
        """Total rows after subtracting deletion-vector cardinalities."""
        deleted = sum(dv.cardinality for dv in self.dvs.values())
        return sum(f.num_rows for f in self.files.values()) - deleted

    @property
    def total_bytes(self) -> int:
        """Total bytes across live data files."""
        return sum(f.size_bytes for f in self.files.values())

    def dv_for(self, file_name: str) -> Optional[DeletionVectorInfo]:
        """The deletion vector currently attached to ``file_name``."""
        return self.dvs.get(file_name)

    # -- replay ---------------------------------------------------------------

    def apply_manifest(
        self, actions: Iterable[Action], sequence_id: int
    ) -> "TableSnapshot":
        """Apply one committed manifest; returns the successor snapshot."""
        files = dict(self.files)
        dvs = dict(self.dvs)
        for action in actions:
            if isinstance(action, AddDataFile):
                if action.file.name in files:
                    raise FileFormatError(
                        f"manifest {sequence_id}: duplicate add of data file "
                        f"{action.file.name!r}"
                    )
                files[action.file.name] = action.file
            elif isinstance(action, RemoveDataFile):
                if files.pop(action.name, None) is None:
                    raise FileFormatError(
                        f"manifest {sequence_id}: remove of unknown data file "
                        f"{action.name!r}"
                    )
                # Removing a data file implicitly retires its DV as well.
                dvs.pop(action.name, None)
            elif isinstance(action, RemoveDeletionVector):
                current = dvs.get(action.target_file)
                if current is None or current.name != action.name:
                    raise FileFormatError(
                        f"manifest {sequence_id}: remove of unknown DV "
                        f"{action.name!r}"
                    )
                del dvs[action.target_file]
            elif isinstance(action, AddDeletionVector):
                if action.dv.target_file not in files:
                    raise FileFormatError(
                        f"manifest {sequence_id}: DV targets unknown data file "
                        f"{action.dv.target_file!r}"
                    )
                if action.dv.target_file in dvs:
                    raise FileFormatError(
                        f"manifest {sequence_id}: data file "
                        f"{action.dv.target_file!r} already has a DV; the "
                        "manifest must remove it first"
                    )
                dvs[action.dv.target_file] = action.dv
            else:  # pragma: no cover - exhaustive over the Action union
                raise TypeError(f"unknown action {action!r}")
        return TableSnapshot(sequence_id=sequence_id, files=files, dvs=dvs)

    # -- serialization (for checkpoints) --------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (used by checkpoint files)."""
        return {
            "sequence_id": self.sequence_id,
            "files": [f.to_dict() for f in self.files.values()],
            "dvs": [dv.to_dict() for dv in self.dvs.values()],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TableSnapshot":
        """Inverse of :meth:`to_dict`; any other key (a ``tombstones``
        list, say) raises ``ValueError``."""
        if set(raw) != _KEYS:
            raise ValueError(f"snapshot keys {sorted(raw)} are not {sorted(_KEYS)}")
        files = {
            item["name"]: DataFileInfo.from_dict(item) for item in raw["files"]
        }
        dvs = {
            item["target_file"]: DeletionVectorInfo.from_dict(item)
            for item in raw["dvs"]
        }
        return cls(sequence_id=raw["sequence_id"], files=files, dvs=dvs)


#: The keys of a snapshot's serialized form.
_KEYS = frozenset(("sequence_id", "files", "dvs"))


def replay(
    manifests: Iterable[Tuple[int, float, List[Action]]],
    base: Optional[TableSnapshot] = None,
) -> TableSnapshot:
    """Replay ``(sequence_id, committed_at, actions)`` triples in order.

    ``base`` is an optional starting snapshot (e.g. a checkpoint); only
    manifests with a sequence id greater than the base's are applied.
    This is the standalone form for property tests and micro-benchmarks;
    a deployment replays through its :class:`~repro.lst.cache.SnapshotCache`.
    """
    snapshot = base if base is not None else TableSnapshot()
    for sequence_id, __, actions in manifests:
        if sequence_id <= snapshot.sequence_id:
            continue
        snapshot = snapshot.apply_manifest(actions, sequence_id)
    return snapshot
