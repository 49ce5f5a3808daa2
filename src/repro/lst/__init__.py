"""Log-structured table (LST) physical metadata.

An LST table's state is the replay of a totally ordered sequence of
*manifest files*, one per committed write transaction (Section 2.2).  Each
manifest records actions: data files added/removed and deletion-vector
files added/removed.  This package provides:

* the action vocabulary and its wire form (:mod:`actions`,
  :mod:`manifest`): JSON inside the frames of the one metadata codec
  (:mod:`codec`) that manifests and checkpoints share;
* deterministic snapshot reconstruction by replay (:mod:`snapshot`);
* manifest *checkpoints* that collapse a prefix of the log (:mod:`checkpoint`);
* the BE-side incremental snapshot cache (:mod:`cache`).
"""

from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
)
from repro.lst.cache import SnapshotCache
from repro.lst.checkpoint import Checkpoint
from repro.lst.manifest import decode_manifest, encode_actions, reconcile_actions
from repro.lst.snapshot import TableSnapshot, replay

__all__ = [
    "Action",
    "AddDataFile",
    "AddDeletionVector",
    "Checkpoint",
    "DataFileInfo",
    "DeletionVectorInfo",
    "RemoveDataFile",
    "RemoveDeletionVector",
    "SnapshotCache",
    "TableSnapshot",
    "decode_manifest",
    "encode_actions",
    "reconcile_actions",
    "replay",
]
