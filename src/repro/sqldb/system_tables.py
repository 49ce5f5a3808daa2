"""Typed accessors for the Polaris system-catalog tables.

Seven system tables (Figure 4 of the paper, plus the checkpoint table
from Section 5.2, the logical ``Tables`` catalog, the optimizer catalog
and the manifest-truncation marks):

* ``Tables``     — logical metadata: table id, name, schema.
* ``Manifests``  — one row per (committed write transaction × modified
  table): the manifest file name, the commit sequence id, and the SQL DB
  transaction id.
* ``WriteSets``  — conflict-detection rows upserted by write transactions;
  keyed by table id (table granularity) or (table id, data file name)
  (file granularity, Section 4.4.1).
* ``Checkpoints`` — manifest checkpoints per table.
* ``Truncations`` — per table, the highest manifest sequence garbage
  collection has truncated from the log.  Below it the checkpoints are
  the only record of the table's state.
* ``TableStats``  — optimizer statistics per (table, snapshot sequence):
  row counts, per-column NDV/null-fraction/min/max and equi-depth
  histograms collected by ANALYZE, versioned so time-travel reads see
  the stats that described the data they see.
* ``Indexes``    — secondary-index catalog: indexed column, index file
  path, build sequence and the covered data-file names.

All functions operate through a :class:`~repro.sqldb.SqlDbTransaction`, so
their effects inherit the caller's isolation and atomicity.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sqldb.transaction import SqlDbTransaction, VisibleRow

TABLES = "Tables"
MANIFESTS = "Manifests"
WRITESETS = "WriteSets"
CHECKPOINTS = "Checkpoints"
TRUNCATIONS = "Truncations"
TABLE_STATS = "TableStats"
INDEXES = "Indexes"


# -- Tables -------------------------------------------------------------------


def insert_table(
    txn: SqlDbTransaction,
    table_id: int,
    name: str,
    schema: List[Dict[str, str]],
    created_at: float,
) -> None:
    """Register a logical table in the catalog."""
    txn.put(
        TABLES,
        (table_id,),
        {
            "table_id": table_id,
            "name": name,
            "schema": schema,
            "created_at": created_at,
        },
    )


def get_table(txn: SqlDbTransaction, table_id: int) -> Optional[Dict[str, Any]]:
    """Fetch a logical table row by id."""
    return txn.get(TABLES, (table_id,))


def find_table_by_name(txn: SqlDbTransaction, name: str) -> Optional[Dict[str, Any]]:
    """Fetch a logical table row by name (None if absent)."""
    for row in txn.scan(TABLES, lambda r: r["name"] == name):
        return row
    return None


def list_tables(txn: SqlDbTransaction) -> List[Dict[str, Any]]:
    """All visible logical tables."""
    return list(txn.scan(TABLES))


def drop_table(txn: SqlDbTransaction, table_id: int) -> None:
    """Remove a logical table row."""
    txn.delete(TABLES, (table_id,))


# -- Manifests ------------------------------------------------------------------


def insert_manifest(
    txn: SqlDbTransaction,
    table_id: int,
    manifest_file_name: str,
    sequence_id: int,
    transaction_id: int,
    committed_at: float,
    manifest_path: str,
) -> None:
    """Record a committed transaction manifest for a table.

    ``manifest_path`` is the absolute object-store path.  It is stored
    explicitly (not derived from the table id) because zero-copy clones
    re-insert a source table's manifest rows under the clone's table id
    while the manifest files stay in the source table's folder
    (Section 6.2).
    """
    txn.put(
        MANIFESTS,
        (table_id, sequence_id),
        {
            "table_id": table_id,
            "manifest_file_name": manifest_file_name,
            "sequence_id": sequence_id,
            "transaction_id": transaction_id,
            "committed_at": committed_at,
            "manifest_path": manifest_path,
        },
    )


def manifests_for_table(
    txn: SqlDbTransaction,
    table_id: int,
    min_seq_exclusive: int = 0,
    max_seq_inclusive: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Visible manifests of ``table_id`` in ``(min_seq, max_seq]``, ordered."""
    rows = [
        hit.row
        for hit in txn.newest_first(
            MANIFESTS, (table_id,), min_seq_exclusive, max_seq_inclusive
        )
    ]
    rows.reverse()
    return rows


def latest_manifest(
    txn: SqlDbTransaction, table_id: int
) -> Optional[Dict[str, Any]]:
    """Newest visible manifest of ``table_id`` (None before its first
    commit): a seek, whatever the table's age."""
    hit = txn.newest(MANIFESTS, (table_id,))
    return None if hit is None else hit.row


# -- WriteSets ------------------------------------------------------------------


def upsert_writeset(
    txn: SqlDbTransaction,
    table_id: int,
    data_file_name: Optional[str] = None,
) -> None:
    """Mark a conflict unit as updated by this transaction.

    With ``data_file_name`` the conflict unit is one data file
    (file-granularity, Section 4.4.1); otherwise the whole table.  The
    upsert makes the row part of the transaction's write set, so two
    concurrent transactions touching the same unit collide at commit via
    first-committer-wins.
    """
    pk = (table_id,) if data_file_name is None else (table_id, data_file_name)

    def bump(old: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        updated = (old["updated"] if old else 0) + 1
        row = {"table_id": table_id, "updated": updated}
        if data_file_name is not None:
            row["data_file_name"] = data_file_name
        return row

    txn.upsert(WRITESETS, pk, bump)


# -- Checkpoints -----------------------------------------------------------------


def insert_checkpoint(
    txn: SqlDbTransaction,
    table_id: int,
    sequence_id: int,
    path: str,
    created_at: float,
) -> None:
    """Record a manifest checkpoint for a table."""
    txn.put(
        CHECKPOINTS,
        (table_id, sequence_id),
        {
            "table_id": table_id,
            "sequence_id": sequence_id,
            "path": path,
            "created_at": created_at,
        },
    )


def latest_checkpoint(
    txn: SqlDbTransaction, table_id: int, max_seq_inclusive: int
) -> Optional[Dict[str, Any]]:
    """Newest visible checkpoint of ``table_id`` at or below a sequence."""
    hit = txn.newest(CHECKPOINTS, (table_id,), upto=max_seq_inclusive)
    return None if hit is None else hit.row


def checkpoints_for_table(
    txn: SqlDbTransaction, table_id: int
) -> List[Dict[str, Any]]:
    """All visible checkpoints of a table, ordered by sequence."""
    rows = list(txn.scan(CHECKPOINTS, prefix=(table_id,)))
    rows.sort(key=lambda r: r["sequence_id"])
    return rows


# -- Truncations -----------------------------------------------------------------


def record_truncation(
    txn: SqlDbTransaction, table_id: int, sequence_id: int
) -> None:
    """Record that the manifests of ``table_id`` up to ``sequence_id`` are
    gone from the log (garbage collection truncates oldest first, so each
    record is above the last)."""
    txn.put(
        TRUNCATIONS,
        (table_id,),
        {"table_id": table_id, "sequence_id": sequence_id},
    )


def truncated_through(txn: SqlDbTransaction, table_id: int) -> int:
    """Highest truncated manifest sequence of ``table_id`` (0: none)."""
    row = txn.get(TRUNCATIONS, (table_id,))
    return 0 if row is None else row["sequence_id"]


# -- TableStats ------------------------------------------------------------------


def put_table_stats(
    txn: SqlDbTransaction,
    table_id: int,
    sequence_id: int,
    payload: Dict[str, Any],
) -> None:
    """Persist collected optimizer statistics for a table snapshot.

    Stats are keyed ``(table_id, sequence_id)`` — versioned with the
    snapshot sequence they were collected at, so a time-travel read at
    sequence *s* resolves the stats that describe data visible at *s*
    (never stats computed from a future snapshot).  Re-ANALYZE at the
    same sequence overwrites in place (it is a refinement, not history).
    """
    row = dict(payload)
    row["table_id"] = table_id
    row["sequence_id"] = sequence_id
    txn.put(TABLE_STATS, (table_id, sequence_id), row)


def latest_table_stats(
    txn: SqlDbTransaction, table_id: int, max_seq_inclusive: int
) -> Optional[Dict[str, Any]]:
    """Newest visible statistics of ``table_id`` at or below a sequence."""
    hit = newest_table_stats(txn, table_id, max_seq_inclusive)
    return None if hit is None else hit.row


def newest_table_stats(
    txn: SqlDbTransaction, table_id: int, max_seq_inclusive: int
) -> Optional[VisibleRow]:
    """:func:`latest_table_stats` with the catalog version it was read
    from, which identifies the row across re-ANALYZEs at one sequence."""
    return txn.newest(TABLE_STATS, (table_id,), upto=max_seq_inclusive)


def stats_for_table(
    txn: SqlDbTransaction, table_id: int
) -> List[Dict[str, Any]]:
    """All visible statistics versions of a table, ordered by sequence."""
    rows = list(txn.scan(TABLE_STATS, prefix=(table_id,)))
    rows.sort(key=lambda r: r["sequence_id"])
    return rows


def all_table_stats(txn: SqlDbTransaction) -> List[Dict[str, Any]]:
    """Every visible statistics row (DMV provider), deterministic order."""
    rows = list(txn.scan(TABLE_STATS))
    rows.sort(key=lambda r: (r["table_id"], r["sequence_id"]))
    return rows


def delete_table_stats(
    txn: SqlDbTransaction, table_id: int, sequence_id: int
) -> None:
    """Drop one statistics version (GC of superseded stats)."""
    txn.delete(TABLE_STATS, (table_id, sequence_id))


# -- Indexes ---------------------------------------------------------------------


def put_index(
    txn: SqlDbTransaction,
    table_id: int,
    index_name: str,
    payload: Dict[str, Any],
) -> None:
    """Register (or replace, on rebuild) a secondary index.

    The payload records the indexed column, the index file's object-store
    path, the snapshot ``sequence_id`` it was built from and — crucially —
    the exact data-file names it covers.  The read path prunes *only*
    covered files, so a stale index (data files added after the build)
    stays correct: unknown files are always scanned.
    """
    row = dict(payload)
    row["table_id"] = table_id
    row["index_name"] = index_name
    txn.put(INDEXES, (table_id, index_name), row)


def get_index(
    txn: SqlDbTransaction, table_id: int, index_name: str
) -> Optional[Dict[str, Any]]:
    """Fetch one index row by name."""
    return txn.get(INDEXES, (table_id, index_name))


def indexes_for_table(
    txn: SqlDbTransaction, table_id: int
) -> List[Dict[str, Any]]:
    """All visible indexes of a table, ordered by name."""
    rows = list(txn.scan(INDEXES, prefix=(table_id,)))
    rows.sort(key=lambda r: r["index_name"])
    return rows


def all_indexes(txn: SqlDbTransaction) -> List[Dict[str, Any]]:
    """Every visible index row (DMV provider), deterministic order."""
    rows = list(txn.scan(INDEXES))
    rows.sort(key=lambda r: (r["table_id"], r["index_name"]))
    return rows


def drop_index(
    txn: SqlDbTransaction, table_id: int, index_name: str
) -> None:
    """Remove an index row (DROP TABLE cleanup or explicit drop)."""
    txn.delete(INDEXES, (table_id, index_name))
