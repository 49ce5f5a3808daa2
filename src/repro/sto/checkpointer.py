"""Manifest checkpointing (Section 5.2).

Once a table accumulates more than a threshold of manifests beyond its
last checkpoint, the STO reconciles them into a single checkpoint file and
records it in the ``Checkpoints`` catalog table.  Checkpointing reads
manifests and writes one new file — it never touches data files, so
(unlike compaction) it can never conflict with user transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import SimulatedCrash
from repro.fe.context import ServiceContext
from repro.lst.checkpoint import Checkpoint
from repro.sqldb import system_tables as catalog
from repro.storage import paths


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one checkpoint run."""

    table_id: int
    sequence_id: int
    path: str
    created_at: float
    manifests_collapsed: int


def manifests_since_checkpoint(context: ServiceContext, table_id: int) -> int:
    """How many committed manifests the table has beyond its last checkpoint."""
    txn = context.sqldb.begin()
    try:
        latest = catalog.latest_checkpoint(
            txn, table_id, context.sqldb.last_commit_seq
        )
        base_seq = latest["sequence_id"] if latest else 0
        rows = catalog.manifests_for_table(txn, table_id, base_seq)
        return len(rows)
    finally:
        txn.abort()


def run_checkpoint(
    context: ServiceContext, table_id: int
) -> Optional[CheckpointResult]:
    """Write a checkpoint at the table's latest committed sequence.

    Returns None when there is nothing new to checkpoint.
    """
    txn = context.sqldb.begin()
    try:
        top = catalog.latest_manifest(txn, table_id)
        if top is None:
            return None
        top_seq = top["sequence_id"]
        existing = catalog.latest_checkpoint(txn, table_id, top_seq)
        base_seq = existing["sequence_id"] if existing else 0
        if base_seq == top_seq:
            return None
        collapsed = len(catalog.manifests_for_table(txn, table_id, base_seq))
    finally:
        txn.abort()

    snapshot = context.cache.get(table_id, top_seq)
    created_at = context.clock.now
    checkpoint = Checkpoint.of(snapshot, created_at)
    path = paths.checkpoint_path(context.database, table_id, top_seq)
    crashpoint("sto.checkpoint.before_blob_put")
    context.store.put(path, checkpoint.to_bytes())
    crashpoint("sto.checkpoint.after_blob_put")

    txn = context.sqldb.begin()
    try:
        catalog.insert_checkpoint(txn, table_id, top_seq, path, created_at)
        txn.commit()
    except SimulatedCrash:
        raise
    except BaseException:
        if txn.state.value == "active":
            txn.abort()
        raise
    context.bus.publish(
        "checkpoint.created",
        table_id=table_id,
        sequence_id=top_seq,
        created_at=created_at,
    )
    return CheckpointResult(
        table_id=table_id,
        sequence_id=top_seq,
        path=path,
        created_at=created_at,
        manifests_collapsed=collapsed,
    )
