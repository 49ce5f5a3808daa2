"""Async read snapshots: publishing Delta-format metadata (Section 5.4).

After each commit, the STO transforms the committed manifest into a Delta
Lake commit file under the table's user-accessible ``_delta_log`` folder.
The data files themselves are never copied — a *shortcut* descriptor maps
the published location onto the internal data folder, so other engines
(Spark, etc.) read the same bytes.  Polaris's internal manifest format is
close to Delta's, so the transformation is a direct mapping of actions;
only a removal, which names just the file it retires, has its path looked
up in the table's snapshot before the commit (:func:`published_actions`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.crashpoints import crashpoint
from repro.fe.context import ServiceContext
from repro.fe.manifest_io import load_manifest_actions
from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    RemoveDataFile,
    RemoveDeletionVector,
)
from repro.storage import paths


@dataclass
class PublishedVersion:
    """One Delta commit published for a table."""

    table_name: str
    version: int
    path: str
    sequence_id: int


class DeltaPublisher:
    """Publishes committed manifests as Delta commit files."""

    def __init__(self, context: ServiceContext) -> None:
        self._context = context
        self._versions: Dict[str, int] = {}
        self.published: List[PublishedVersion] = []

    def publish_commit(
        self, table_name: str, table_id: int, manifest_path: str, sequence_id: int
    ) -> PublishedVersion:
        """Transform one committed manifest into a Delta commit file."""
        context = self._context
        data = delta_commit(context, table_id, manifest_path, sequence_id)
        version = self._versions.get(table_name, -1) + 1
        path = paths.published_delta_log_path(context.database, table_name, version)
        crashpoint("sto.publish.before_log_write")
        context.store.put(path, data)
        crashpoint("sto.publish.after_log_write")
        self._ensure_shortcut(table_name, table_id)
        self._versions[table_name] = version
        record = PublishedVersion(
            table_name=table_name,
            version=version,
            path=path,
            sequence_id=sequence_id,
        )
        self.published.append(record)
        return record

    def resync(self, table_name: str, table_id: int) -> Optional[int]:
        """Rebuild in-memory publish state for a table from the store.

        Restart recovery calls this: the publisher's version counter and
        last published sequence live only in process memory, so after a
        crash they must be re-derived from the ``_delta_log`` blobs
        themselves.  Re-ensures the shortcut (completing a publish that
        died between the log write and the shortcut write).  Returns the
        last published Polaris sequence id, or None when nothing is
        published yet.
        """
        context = self._context
        prefix = paths.published_root(context.database, table_name) + "/_delta_log/"
        last_version: Optional[int] = None
        last_sequence: Optional[int] = None
        for blob in context.store.list(prefix):
            name = blob.path.rsplit("/", 1)[1]
            version = int(name.split(".", 1)[0])
            if last_version is None or version > last_version:
                last_version = version
                header = json.loads(blob.data.split(b"\n", 1)[0].decode("utf-8"))
                last_sequence = header["commitInfo"].get("polarisSequenceId")
        if last_version is None:
            self._versions.pop(table_name, None)
            return None
        self._versions[table_name] = last_version
        self._ensure_shortcut(table_name, table_id)
        return last_sequence

    def _ensure_shortcut(self, table_name: str, table_id: int) -> None:
        """Map the published location onto the internal data folder once."""
        context = self._context
        path = paths.published_shortcut_path(context.database, table_name)
        if context.store.exists(path):
            return
        shortcut = {
            "target": paths.table_root(context.database, table_id),
            "type": "onelake-shortcut",
        }
        context.store.put(path, json.dumps(shortcut).encode("utf-8"))


def delta_commit(
    context: ServiceContext, table_id: int, manifest_path: str, sequence_id: int
) -> bytes:
    """The Delta commit file for committed manifest ``sequence_id``: a
    ``commitInfo`` line stamped with the current time, then one line per
    action."""
    lines = [
        json.dumps(
            {
                "commitInfo": {
                    "timestamp": context.clock.now,
                    "operation": "WRITE",
                    "polarisSequenceId": sequence_id,
                }
            },
            separators=(",", ":"),
        )
    ]
    for action, file_path in published_actions(
        context, table_id, manifest_path, sequence_id
    ):
        lines.append(json.dumps(_to_delta(action, file_path), separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def published_actions(
    context: ServiceContext, table_id: int, manifest_path: str, sequence_id: int
) -> List[Tuple[Action, str]]:
    """The actions of committed manifest ``sequence_id``, each with the
    object-store path of the data file or DV it adds or removes.

    A removal names only what it retires, so its path comes from the
    table's snapshot just before the commit — read once, and only when
    the manifest removes something.
    """
    pairs: List[Tuple[Action, str]] = []
    before = None
    for action in load_manifest_actions(context, manifest_path):
        if isinstance(action, AddDataFile):
            pairs.append((action, action.file.path))
        elif isinstance(action, AddDeletionVector):
            pairs.append((action, action.dv.path))
        else:
            if before is None:
                before = context.cache.get(table_id, sequence_id - 1)
            if isinstance(action, RemoveDataFile):
                pairs.append((action, before.files[action.name].path))
            else:
                pairs.append((action, before.dvs[action.target_file].path))
    return pairs


def _to_delta(action: Action, file_path: str) -> dict:
    """Map one manifest action, with the path of the data file or DV it
    adds or removes, to its Delta-log JSON form."""
    if isinstance(action, AddDataFile):
        return {
            "add": {
                "path": file_path,
                "size": action.file.size_bytes,
                "stats": {"numRecords": action.file.num_rows},
                "dataChange": True,
            }
        }
    if isinstance(action, RemoveDataFile):
        return {"remove": {"path": file_path, "dataChange": True}}
    if isinstance(action, AddDeletionVector):
        return {
            "add": {
                "path": action.dv.target_file,
                "deletionVector": {
                    "storagePath": file_path,
                    "cardinality": action.dv.cardinality,
                },
                "dataChange": True,
            }
        }
    if isinstance(action, RemoveDeletionVector):
        return {
            "remove": {
                "path": action.target_file,
                "deletionVector": {"storagePath": file_path},
                "dataChange": True,
            }
        }
    raise TypeError(f"unknown action {action!r}")
