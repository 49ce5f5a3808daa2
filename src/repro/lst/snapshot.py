"""Snapshot reconstruction: replaying manifests into table state.

A :class:`TableSnapshot` is the value of a table as of a sequence id: the
set of live data files, the current deletion vector (if any) of each, and
tombstones for files logically removed within the retention period
(needed by garbage collection).  Replay is deterministic — the core
invariant the property tests exercise is that *checkpoint + tail replay ≡
full replay*.

A tombstone expires with retention: applying a manifest committed at
``committed_at`` drops every tombstone with ``removed_at + retention <=
committed_at``.  The rule reads only the manifest being applied, never
the wall clock, so a snapshot is still a pure function of the manifests
it replays — the checkpoint written at sequence ``k`` is exactly what a
full replay holds at ``k``, tombstones included.  A snapshot therefore
carries the removals of one retention window, not the table's whole
history, and so does every checkpoint of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
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


@dataclass(frozen=True)
class Tombstone:
    """A logically removed file, kept for retention-bounded history: the
    first manifest committed ``retention`` or more after ``removed_at``
    drops it (see :meth:`TableSnapshot.apply_manifest`)."""

    #: "data" or "dv"
    kind: str
    path: str
    #: Commit timestamp of the transaction that removed the file.
    removed_at: float
    #: Sequence id of the manifest that removed the file.
    removed_seq: int


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
    #: Logically removed files within retention as of the last applied
    #: manifest, oldest first.
    tombstones: List[Tombstone] = field(default_factory=list)

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
        self,
        actions: Iterable[Action],
        sequence_id: int,
        committed_at: float,
        retention: float,
    ) -> "TableSnapshot":
        """Apply one committed manifest; returns the successor snapshot.

        Tombstones past ``retention`` as of ``committed_at`` are dropped
        (``math.inf`` keeps every removal).
        """
        files = dict(self.files)
        dvs = dict(self.dvs)
        # This commit's removals, data files before DVs and each in path
        # order: the order a checkpoint's tombstone group restores them
        # in, whether the manifest lists its statements' blocks as they
        # ran or one reconciled block.
        removed_data: List[str] = []
        removed_dvs: List[str] = []
        for action in actions:
            if isinstance(action, AddDataFile):
                if action.file.name in files:
                    raise FileFormatError(
                        f"manifest {sequence_id}: duplicate add of data file "
                        f"{action.file.name!r}"
                    )
                files[action.file.name] = action.file
            elif isinstance(action, RemoveDataFile):
                removed = files.pop(action.name, None)
                if removed is None:
                    raise FileFormatError(
                        f"manifest {sequence_id}: remove of unknown data file "
                        f"{action.name!r}"
                    )
                removed_data.append(removed.path)
                # Removing a data file implicitly retires its DV as well.
                stale_dv = dvs.pop(action.name, None)
                if stale_dv is not None:
                    removed_dvs.append(stale_dv.path)
            elif isinstance(action, RemoveDeletionVector):
                current = dvs.get(action.target_file)
                if current is None or current.name != action.name:
                    raise FileFormatError(
                        f"manifest {sequence_id}: remove of unknown DV "
                        f"{action.name!r}"
                    )
                del dvs[action.target_file]
                removed_dvs.append(current.path)
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
        tombstones = self.tombstones + [
            Tombstone(kind, path, committed_at, sequence_id)
            for kind, paths in (("data", removed_data), ("dv", removed_dvs))
            for path in sorted(paths)
        ]
        # Removals are appended in commit order, so the tombstones past
        # retention as of this commit are a prefix of the list.
        expired = 0
        for tomb in tombstones:
            if tomb.removed_at + retention > committed_at:
                break
            expired += 1
        del tombstones[:expired]
        return TableSnapshot(
            sequence_id=sequence_id, files=files, dvs=dvs, tombstones=tombstones
        )

    # -- serialization (for checkpoints) --------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (used by checkpoint files).

        Tombstones are grouped by the commit that removed them: one group
        per commit holds its removal time and sequence once, then the
        paths of the data files and of the DVs it retired.
        """
        groups = []
        for (removed_seq, removed_at), members in groupby(
            self.tombstones, key=lambda t: (t.removed_seq, t.removed_at)
        ):
            members = list(members)
            groups.append(
                {
                    "removed_at": removed_at,
                    "removed_seq": removed_seq,
                    "data": [t.path for t in members if t.kind == "data"],
                    "dv": [t.path for t in members if t.kind == "dv"],
                }
            )
        return {
            "sequence_id": self.sequence_id,
            "files": [f.to_dict() for f in self.files.values()],
            "dvs": [dv.to_dict() for dv in self.dvs.values()],
            "tombstones": groups,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TableSnapshot":
        """Inverse of :meth:`to_dict`; a malformed tombstone group raises
        ``ValueError``."""
        files = {
            item["name"]: DataFileInfo.from_dict(item) for item in raw["files"]
        }
        dvs = {
            item["target_file"]: DeletionVectorInfo.from_dict(item)
            for item in raw["dvs"]
        }
        tombstones = []
        for group in raw["tombstones"]:
            removed_at, removed_seq = group["removed_at"], group["removed_seq"]
            if type(removed_seq) is not int:
                raise ValueError(f"tombstone removed_seq {removed_seq!r} is not an int")
            if type(removed_at) not in (int, float):
                raise ValueError(f"tombstone removed_at {removed_at!r} is not a number")
            for kind in ("data", "dv"):
                paths = group[kind]
                if type(paths) is not list or not all(
                    type(path) is str for path in paths
                ):
                    raise ValueError(f"tombstone {kind} paths {paths!r} are not strings")
                tombstones.extend(
                    Tombstone(kind, path, float(removed_at), removed_seq)
                    for path in paths
                )
        return cls(
            sequence_id=raw["sequence_id"],
            files=files,
            dvs=dvs,
            tombstones=tombstones,
        )


def replay(
    manifests: Iterable[Tuple[int, float, List[Action]]],
    base: Optional[TableSnapshot] = None,
    retention: float = math.inf,
) -> TableSnapshot:
    """Replay ``(sequence_id, committed_at, actions)`` triples in order.

    ``base`` is an optional starting snapshot (e.g. a checkpoint); only
    manifests with a sequence id greater than the base's are applied.
    This is the standalone form for property tests and micro-benchmarks
    and keeps the full removal history unless ``retention`` is given; a
    deployment replays through its :class:`~repro.lst.cache.SnapshotCache`,
    which always applies the configured retention.
    """
    snapshot = base if base is not None else TableSnapshot()
    for sequence_id, committed_at, actions in manifests:
        if sequence_id <= snapshot.sequence_id:
            continue
        snapshot = snapshot.apply_manifest(
            actions, sequence_id, committed_at, retention
        )
    return snapshot
