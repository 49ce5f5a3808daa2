"""Path layout conventions inside the simulated OneLake account.

Mirrors Section 5.4 of the paper: each table has a dedicated internal data
folder, manifests live beside the data, and published (Delta-format)
metadata goes to a user-accessible location.
"""

from __future__ import annotations

import re
from typing import Tuple

#: A path under a table's root: ``internal/<database>/tables/<id>/...``.
_UNDER_TABLE_ROOT = re.compile(r"internal/(.+)/tables/(\d+)/")


def table_root(database: str, table_id: int) -> str:
    """Internal root folder for a table's data and physical metadata."""
    return f"internal/{database}/tables/{table_id}"


def table_of(path: str) -> Tuple[str, int]:
    """``(database, table_id)`` of the table root ``path`` lies under;
    ``ValueError`` for a path under none."""
    match = _UNDER_TABLE_ROOT.match(path)
    if match is None:
        raise ValueError(f"{path!r} is under no table root")
    return match.group(1), int(match.group(2))


def data_file_path(database: str, table_id: int, file_name: str) -> str:
    """Path of a Parquet-stand-in data file."""
    return f"{table_root(database, table_id)}/data/{file_name}"


def dv_file_path(database: str, table_id: int, file_name: str) -> str:
    """Path of a deletion-vector file."""
    return f"{table_root(database, table_id)}/dv/{file_name}"


def manifest_path(database: str, table_id: int, manifest_name: str) -> str:
    """Path of a transaction manifest file."""
    return f"{table_root(database, table_id)}/_manifests/{manifest_name}.json"


def checkpoint_path(database: str, table_id: int, sequence_id: int) -> str:
    """Path of a manifest checkpoint covering sequences ``<= sequence_id``."""
    return f"{table_root(database, table_id)}/_checkpoints/{sequence_id:012d}.checkpoint.json"


def index_file_path(
    database: str, table_id: int, index_name: str, sequence_id: int
) -> str:
    """Path of a secondary-index sorted-run file built at ``sequence_id``.

    Index files live under ``_indexes/`` inside the table root so
    recovery's catalog reconciliation can scavenge orphaned builds the
    same way it scavenges orphaned checkpoints.
    """
    return (
        f"{table_root(database, table_id)}/_indexes/"
        f"{index_name}.{sequence_id:012d}.index"
    )


def quarantine_path(path: str) -> str:
    """Quarantine location of a corrupt blob (outside every scanned root).

    The ``quarantine/`` namespace sits beside ``internal/`` and
    ``published/`` so neither garbage collection nor recovery's catalog
    reconciliation ever walks it: quarantined blobs are kept for forensics,
    never deleted, never served.
    """
    return f"quarantine/{path}"


def published_root(database: str, table_name: str) -> str:
    """User-accessible location where Delta-format snapshots are published."""
    return f"published/{database}/{table_name}"


def published_delta_log_path(database: str, table_name: str, version: int) -> str:
    """Path of a published Delta commit file (``_delta_log/NNN.json``)."""
    return f"{published_root(database, table_name)}/_delta_log/{version:020d}.json"


def published_shortcut_path(database: str, table_name: str) -> str:
    """Path of the OneLake shortcut mapping the internal data folder."""
    return f"{published_root(database, table_name)}/_shortcut.json"
