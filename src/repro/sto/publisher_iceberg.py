"""Iceberg-format publishing: the paper's planned format extension.

Section 5.4: "allowing us to evolve the internal manifest format
separately and add different formats in the future."  The Delta publisher
covers the format the production system ships today; this module adds the
Iceberg mapping, demonstrating that the internal manifest vocabulary
translates to the other major open format without touching data files:

* each commit becomes an Iceberg *snapshot* with its own manifest file
  (``ADDED``/``DELETED`` data-file entries; deletion vectors map to
  positional-delete file entries);
* a *manifest list* per snapshot and a versioned ``vN.metadata.json``
  carry the table's snapshot log, mirroring Iceberg's metadata layout in
  JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

from repro.fe.context import ServiceContext
from repro.lst.actions import (
    AddDataFile,
    AddDeletionVector,
    RemoveDataFile,
    RemoveDeletionVector,
)
from repro.storage import paths
from repro.sto.publisher import published_actions


def _metadata_root(database: str, table_name: str) -> str:
    return f"{paths.published_root(database, table_name)}/iceberg/metadata"


@dataclass
class IcebergVersion:
    """One published Iceberg snapshot."""

    table_name: str
    version: int
    snapshot_id: int
    metadata_path: str


class IcebergPublisher:
    """Publishes committed manifests as Iceberg snapshots."""

    def __init__(self, context: ServiceContext) -> None:
        self._context = context
        self._versions: Dict[str, int] = {}
        self._snapshots: Dict[str, List[dict]] = {}
        self.published: List[IcebergVersion] = []

    def publish_commit(
        self, table_name: str, table_id: int, manifest_path: str, sequence_id: int
    ) -> IcebergVersion:
        """Transform one committed Polaris manifest into an Iceberg snapshot."""
        context = self._context
        actions = published_actions(context, table_id, manifest_path, sequence_id)
        version = self._versions.get(table_name, -1) + 1
        root = _metadata_root(context.database, table_name)
        snapshot_id = sequence_id

        data_entries = []
        delete_entries = []
        for action, file_path in actions:
            if isinstance(action, AddDataFile):
                data_entries.append(
                    {
                        "status": "ADDED",
                        "data_file": {
                            "file_path": file_path,
                            "record_count": action.file.num_rows,
                            "file_size_in_bytes": action.file.size_bytes,
                        },
                    }
                )
            elif isinstance(action, RemoveDataFile):
                data_entries.append(
                    {
                        "status": "DELETED",
                        "data_file": {"file_path": file_path},
                    }
                )
            elif isinstance(action, AddDeletionVector):
                delete_entries.append(
                    {
                        "status": "ADDED",
                        "delete_file": {
                            "content": "position-deletes",
                            "file_path": file_path,
                            "referenced_data_file": action.dv.target_file,
                            "record_count": action.dv.cardinality,
                        },
                    }
                )
            elif isinstance(action, RemoveDeletionVector):
                delete_entries.append(
                    {
                        "status": "DELETED",
                        "delete_file": {
                            "file_path": file_path,
                            "referenced_data_file": action.target_file,
                        },
                    }
                )

        manifest_file = f"{root}/manifest-{snapshot_id:012d}.json"
        context.store.put(
            manifest_file,
            json.dumps(
                {"entries": data_entries + delete_entries}, separators=(",", ":")
            ).encode("utf-8"),
        )
        manifest_list = f"{root}/snap-{snapshot_id:012d}.json"
        context.store.put(
            manifest_list,
            json.dumps(
                {"manifests": [{"manifest_path": manifest_file}]},
                separators=(",", ":"),
            ).encode("utf-8"),
        )
        pure_append = not delete_entries and all(
            entry["status"] == "ADDED" for entry in data_entries
        )
        snapshot = {
            "snapshot-id": snapshot_id,
            "sequence-number": sequence_id,
            "timestamp-ms": int(context.clock.now * 1000),
            "manifest-list": manifest_list,
            "summary": {
                "operation": "append" if pure_append else "overwrite",
            },
        }
        history = self._snapshots.setdefault(table_name, [])
        history.append(snapshot)
        metadata_path = f"{root}/v{version}.metadata.json"
        context.store.put(
            metadata_path,
            json.dumps(
                {
                    "format-version": 2,
                    "location": paths.table_root(context.database, table_id),
                    "current-snapshot-id": snapshot_id,
                    "snapshots": history,
                },
                separators=(",", ":"),
            ).encode("utf-8"),
        )
        self._versions[table_name] = version
        record = IcebergVersion(
            table_name=table_name,
            version=version,
            snapshot_id=snapshot_id,
            metadata_path=metadata_path,
        )
        self.published.append(record)
        return record


def read_iceberg_table(context: ServiceContext, table_name: str):
    """Replay a published Iceberg metadata chain (external-engine check).

    Returns ``(live data-file paths, dv path by target file)`` or None if
    the table was never published in Iceberg format.
    """
    root = _metadata_root(context.database, table_name)
    metadata_blobs = sorted(
        (b for b in context.store.list(root + "/") if ".metadata.json" in b.path),
        key=lambda b: b.path,
    )
    if not metadata_blobs:
        return None
    # Version file names zero-pad nothing; order by the integer version.
    latest = max(
        metadata_blobs,
        key=lambda b: int(b.path.rsplit("/v", 1)[1].split(".")[0]),
    )
    metadata = json.loads(latest.data.decode("utf-8"))
    files: Dict[str, int] = {}
    dvs: Dict[str, str] = {}
    for snapshot in sorted(metadata["snapshots"], key=lambda s: s["sequence-number"]):
        manifest_list = json.loads(
            context.store.get(snapshot["manifest-list"]).data.decode("utf-8")
        )
        for manifest_ref in manifest_list["manifests"]:
            manifest = json.loads(
                context.store.get(manifest_ref["manifest_path"]).data.decode("utf-8")
            )
            for entry in manifest["entries"]:
                if "data_file" in entry:
                    path = entry["data_file"]["file_path"]
                    if entry["status"] == "ADDED":
                        files[path] = entry["data_file"].get("record_count", 0)
                    else:
                        files.pop(path, None)
                else:
                    delete_file = entry["delete_file"]
                    target = delete_file["referenced_data_file"]
                    if entry["status"] == "ADDED":
                        dvs[target] = delete_file["file_path"]
                    else:
                        dvs.pop(target, None)
    # Deletes attached to files that were later removed are irrelevant.
    live_names = {p.rsplit("/", 1)[-1] for p in files}
    dvs = {t: p for t, p in dvs.items() if t in live_names}
    return files, dvs
