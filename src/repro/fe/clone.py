"""Zero-copy table clones (Section 6.2).

Cloning duplicates only logical metadata: the clone gets a fresh table id
and the source's visible ``Manifests`` rows are re-inserted under that id
(optionally only those at or before a point in time), together with its
``Checkpoints`` rows up to the newest copied manifest and its truncation
mark — once GC has truncated a table's log, a checkpoint is the only
record of the truncated prefix.  No data or physical metadata is copied —
both tables replay the same manifest and checkpoint files and reference
the same immutable data files, then evolve independently.  The clone runs
inside the caller's root transaction, so it is consistent under SI and
never interferes with concurrent activity on the source.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import CatalogError
from repro.fe.catalog import create_table, describe_table, table_schema
from repro.fe.context import ServiceContext
from repro.sqldb import system_tables as catalog
from repro.sqldb.transaction import SqlDbTransaction


def clone_table(
    context: ServiceContext,
    txn: SqlDbTransaction,
    source_name: str,
    target_name: str,
    as_of: Optional[float] = None,
) -> int:
    """Clone ``source_name`` into a new table; returns the clone's id."""
    source = describe_table(txn, source_name)
    if catalog.find_table_by_name(txn, target_name) is not None:
        raise CatalogError(f"table {target_name!r} already exists")
    clone_id = create_table(
        context,
        txn,
        target_name,
        table_schema(source),
        distribution_column=source.get("distribution_column"),
        sort_column=source.get("sort_column"),
        buckets=source.get("distributions"),
    )
    newest = 0
    for row in catalog.manifests_for_table(txn, source["table_id"]):
        if as_of is not None and row["committed_at"] > as_of:
            continue
        newest = row["sequence_id"]
        # Clones re-insert *historical* rows (source sequence ids, not a
        # fresh commit sequence) as buffered writes of the caller's root
        # transaction; the engine installs them under the commit lock at
        # commit, so no lock is needed lexically here.
        catalog.insert_manifest(  # repro: ignore[commit-lock-discipline]
            txn,
            clone_id,
            row["manifest_file_name"],
            row["sequence_id"],
            row["transaction_id"],
            row["committed_at"],
            row["manifest_path"],
        )
    # Below the source's truncation mark its checkpoints are the only
    # record of its state, so the clone shares them (and the mark) too.
    for ckpt in catalog.checkpoints_for_table(txn, source["table_id"]):
        if ckpt["sequence_id"] <= newest:
            catalog.insert_checkpoint(
                txn, clone_id, ckpt["sequence_id"], ckpt["path"], ckpt["created_at"]
            )
    truncated = catalog.truncated_through(txn, source["table_id"])
    if truncated:
        catalog.record_truncation(txn, clone_id, truncated)
    return clone_id
