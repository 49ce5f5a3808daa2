"""Reading published Delta logs back into table state (interop check).

Section 5.4's promise is that other engines (Spark, etc.) can consume the
published Delta metadata and see exactly the committed table.  This module
plays the role of such an external engine: it replays a published
``_delta_log`` directory into the set of live data files and their
deletion vectors, without touching Polaris's own catalog — the tests
assert the result matches the engine's snapshot file for file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.fe.context import ServiceContext
from repro.storage import paths
from repro.storage.integrity import CHECKSUM_KEY, verify_checksum


@dataclass
class DeltaTableState:
    """Live files (by path) and DV paths per file, as an external reader sees."""

    #: data file path -> size in bytes
    files: Dict[str, int] = field(default_factory=dict)
    #: data file *name* or path key -> DV storage path
    deletion_vectors: Dict[str, str] = field(default_factory=dict)
    versions_read: int = 0

    @property
    def total_bytes(self) -> int:
        """Sum of live data file sizes."""
        return sum(self.files.values())


def read_published_table(
    context: ServiceContext, table_name: str
) -> Optional[DeltaTableState]:
    """Replay a table's published ``_delta_log``; None if never published."""
    prefix = f"{paths.published_root(context.database, table_name)}/_delta_log/"
    logs = sorted(context.store.list(prefix), key=lambda blob: blob.path)
    if not logs:
        return None
    state = DeltaTableState()
    for blob in logs:
        # Listing serves blob records directly (no per-blob ``get``), so
        # this external-reader path carries its own verification: a rotted
        # log entry must never silently drop table files.
        verify_checksum(
            blob.path,
            blob.data,
            blob.metadata.get(CHECKSUM_KEY),
            telemetry=context.telemetry,
        )
        state.versions_read += 1
        for line in blob.data.decode("utf-8").splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            if "commitInfo" in entry:
                continue
            if "add" in entry:
                _apply_add(state, entry["add"])
            elif "remove" in entry:
                _apply_remove(state, entry["remove"])
    return state


def _file_key(path: str) -> str:
    """Normalize data-file references to the unique file name.

    The publisher emits full paths for data files and bare target-file
    names for deletion-vector attachments; no two files in a store share
    a name (DESIGN.md "File names"), so the basename is a stable join key.
    """
    return path.rsplit("/", 1)[-1]


def _apply_add(state: DeltaTableState, add: dict) -> None:
    dv = add.get("deletionVector")
    if dv is not None:
        state.deletion_vectors[_file_key(add["path"])] = dv["storagePath"]
        return
    state.files[add["path"]] = add.get("size", 0)


def _apply_remove(state: DeltaTableState, remove: dict) -> None:
    dv = remove.get("deletionVector")
    if dv is not None:
        state.deletion_vectors.pop(_file_key(remove["path"]), None)
        return
    state.files.pop(remove["path"], None)
    state.deletion_vectors.pop(_file_key(remove["path"]), None)
