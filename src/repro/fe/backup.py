"""Zero-data-copy backup and restore (Section 6.3).

Because all data and physical metadata are immutable files in the object
store, a backup is just a dump of the logical metadata — the SQL DB system
tables.  Restore (optionally to a point in time) rebuilds the catalog from
a backup, filtering ``Manifests`` rows by commit time; data files need no
copying, and anything left unreferenced is reclaimed by the next garbage
collection.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.common.errors import TransactionStateError
from repro.fe.context import ServiceContext
from repro.sqldb import system_tables as st
from repro.sqldb.engine import SqlDbEngine

_SYSTEM_TABLES = (
    st.TABLES,
    st.MANIFESTS,
    st.WRITESETS,
    st.CHECKPOINTS,
    st.TRUNCATIONS,
)


def create_backup(context: ServiceContext) -> bytes:
    """Serialize the current committed catalog state."""
    payload = {
        "taken_at": context.clock.now,
        "tables": {
            name: context.sqldb.dump_table(name) for name in _SYSTEM_TABLES
        },
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def restore_backup(
    context: ServiceContext, backup: bytes, as_of: Optional[float] = None
) -> None:
    """Replace the catalog with a backup's state (optionally point-in-time).

    ``as_of`` drops ``Manifests`` and ``Checkpoints`` rows committed after
    that instant, restoring every table to its state at that time.  The
    object store is untouched; superseded files become GC candidates.
    Requires no transactions to be in flight.
    """
    if context.sqldb.active_transactions:
        raise TransactionStateError("cannot restore with active transactions")
    payload = json.loads(backup.decode("utf-8"))
    engine = SqlDbEngine(clock=context.clock)
    txn = engine.begin()
    max_table_id = 0
    max_sequence_id = 0
    for name in _SYSTEM_TABLES:
        for row in payload["tables"].get(name, []):
            if as_of is not None and name == st.MANIFESTS:
                if row["committed_at"] > as_of:
                    continue
            if as_of is not None and name == st.CHECKPOINTS:
                if row["created_at"] > as_of:
                    continue
            txn.put(name, _primary_key(name, row), row)
            if name == st.TABLES:
                max_table_id = max(max_table_id, row["table_id"])
            if name == st.MANIFESTS:
                max_sequence_id = max(max_sequence_id, row["sequence_id"])
    txn.commit()
    # New commits must continue strictly above every restored sequence id,
    # or snapshot reconstruction would see history run backwards.
    engine.advance_commit_seq_past(max_sequence_id)
    context.sqldb = engine
    # Fresh engine means fresh visibility; cached snapshots may reference
    # rolled-back history, so they are discarded wholesale.
    from repro.fe.manifest_io import make_snapshot_cache

    context.cache = make_snapshot_cache(context)
    # Plans were bound against the replaced engine's Tables rows, whose
    # install sequence the fresh engine restarts.
    context.plan_cache.clear()
    while context.table_ids.last <= max_table_id:
        context.table_ids.next()


def _primary_key(table: str, row: dict) -> tuple:
    if table == st.TABLES:
        return (row["table_id"],)
    if table == st.MANIFESTS:
        return (row["table_id"], row["sequence_id"])
    if table == st.WRITESETS:
        if "data_file_name" in row:
            return (row["table_id"], row["data_file_name"])
        return (row["table_id"],)
    if table == st.CHECKPOINTS:
        return (row["table_id"], row["sequence_id"])
    if table == st.TRUNCATIONS:
        return (row["table_id"],)
    raise ValueError(f"unknown system table {table!r}")
