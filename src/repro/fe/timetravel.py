"""Query As Of: snapshots at arbitrary points in time (Section 6.1).

The ``Manifests`` table records the commit time of every manifest, so the
state of a table at time ``t`` is the replay of manifests with
``committed_at <= t`` — no data copying, just metadata filtering.  The
retention period bounds how far back snapshots are guaranteed: beyond it,
garbage collection may have physically removed superseded files.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import RetentionViolationError, SnapshotNotFoundError
from repro.fe.context import ServiceContext
from repro.lst.snapshot import TableSnapshot
from repro.sqldb import system_tables as catalog


def sequence_as_of(
    context: ServiceContext, table_id: int, timestamp: float
) -> int:
    """Highest manifest sequence of ``table_id`` committed at or before ``timestamp``."""
    now = context.clock.now
    retention = context.config.sto.retention_period_s
    if timestamp < now - retention:
        raise RetentionViolationError(
            f"timestamp {timestamp} is beyond the retention period "
            f"({retention}s before {now})"
        )
    txn = context.sqldb.begin()
    try:
        table = catalog.get_table(txn, table_id)
        if table is None:
            raise SnapshotNotFoundError(f"unknown table id {table_id}")
        if timestamp < table["created_at"]:
            raise SnapshotNotFoundError(
                f"table {table_id} did not exist at {timestamp} "
                f"(created {table['created_at']})"
            )
        rows = catalog.manifests_for_table(txn, table_id)
        truncated = catalog.truncated_through(txn, table_id)
    finally:
        txn.abort()
    eligible = [r["sequence_id"] for r in rows if r["committed_at"] <= timestamp]
    # Truncated manifests committed before the retention window began, so
    # when no surviving one is old enough the newest truncated one is the
    # state at ``timestamp`` (readable only from a checkpoint at it).
    return max(eligible, default=truncated)


def snapshot_as_of(
    context: ServiceContext, table_id: int, timestamp: Optional[float] = None
) -> TableSnapshot:
    """The table's state as of ``timestamp`` (default: now)."""
    if timestamp is None:
        timestamp = context.clock.now
    return context.cache.get(table_id, sequence_as_of(context, table_id, timestamp))
