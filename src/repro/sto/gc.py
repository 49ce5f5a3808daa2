"""Garbage collection (Section 5.3).

GC reconstructs every table's state from its full manifest list and sorts
data/DV files into an *active* set (live files, and removed files still
needed by a readable snapshot) and an *inactive* set (removed files no
readable snapshot needs).  Zero-copy clones create shared lineage, so the
sets are accumulated across all tables and a file in any active set is
always retained.

One horizon decides what is readable: ``min(now - retention, the oldest
open transaction's begin)``.  ``AS OF`` reads inside retention and every
open transaction's snapshot are at or after it.  Below it, and only
below it, GC expires a tombstone, truncates the manifest log and drops a
checkpoint.  Per table it keeps the newest checkpoint at or before the
state at the horizon and the manifest row that checkpoint covers: every
readable state replays from there, and the row anchors the edge for
``AS OF`` and ``clone_table(as_of=)``.

A snapshot only carries the tombstones inside retention as of the table's
last commit (:meth:`repro.lst.snapshot.TableSnapshot.apply_manifest`), so
the inactive set holds just the removals that expired *since* that
commit.  A file whose tombstone already expired at replay is in neither
set and falls to the orphan rule below, which deletes it — unless an open
transaction's snapshot still holds it: each of those snapshots is kept
whole.

Files on storage in neither set are either private files of in-flight
transactions or leftovers of aborted/failed ones.  The paper's rule
distinguishes them by the creation stamp: a file stamped before the
minimum begin timestamp of every currently executing transaction cannot
belong to any of them and is safe to delete.

Truncating a table's manifest log is recorded in ``Truncations``: from
then on its checkpoint, not replay, is the record of the truncated
prefix (:mod:`repro.fe.manifest_io`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import SimulatedCrash
from repro.fe.context import ServiceContext
from repro.lst.snapshot import TableSnapshot
from repro.sqldb import system_tables as catalog


@dataclass
class GcReport:
    """What one garbage-collection run did."""

    scanned: int = 0
    active: int = 0
    deleted_expired: List[str] = field(default_factory=list)
    deleted_orphans: List[str] = field(default_factory=list)
    retained_recent: List[str] = field(default_factory=list)

    @property
    def deleted_total(self) -> int:
        """Total files physically deleted."""
        return len(self.deleted_expired) + len(self.deleted_orphans)


def run_garbage_collection(context: ServiceContext) -> GcReport:
    """Run one GC pass over the deployment's internal storage."""
    now = context.clock.now
    retention = context.config.sto.retention_period_s
    min_active_ts = context.sqldb.min_active_begin_ts()
    #: The commit sequence each open transaction reads tables as of.
    readers = {txn.begin_seq for txn in context.sqldb.active_transactions}

    def below_horizon(stamp: float) -> bool:
        """Whether ``stamp`` is below the horizon ``min(now - retention,
        min_active_ts)``: no read inside retention and no open
        transaction's snapshot sees the state before it."""
        return stamp + retention <= now and (
            min_active_ts is None or stamp < min_active_ts
        )

    active: Set[str] = set()
    inactive: Set[str] = set()

    def keep_files(snapshot: TableSnapshot) -> None:
        active.update(info.path for info in snapshot.files.values())
        active.update(info.path for info in snapshot.dvs.values())

    stale_checkpoints = []  # (table_id, sequence_id, path)
    stale_manifests = []  # (table_id, sequence_id)
    manifest_refs: Dict[str, int] = {}
    manifest_unrefs: Dict[str, int] = {}

    txn = context.sqldb.begin()
    try:
        tables = catalog.list_tables(txn)
        for table in tables:
            table_id = table["table_id"]
            rows = catalog.manifests_for_table(txn, table_id)
            for row in rows:
                manifest_refs[row["manifest_path"]] = (
                    manifest_refs.get(row["manifest_path"], 0) + 1
                )
            # The state at the horizon is the newest manifest committed
            # below it (else the truncation mark).  Every read at or after
            # the horizon replays from the newest checkpoint at or before
            # that state, so it is kept, with the manifest row it covers
            # (the anchor ``AS OF`` and clones resolve the edge to); GC
            # may drop the manifests and checkpoints older than it.
            at_horizon = max(
                (row["sequence_id"] for row in rows if below_horizon(row["committed_at"])),
                default=catalog.truncated_through(txn, table_id),
            )
            base = catalog.latest_checkpoint(txn, table_id, at_horizon)
            base_seq = 0 if base is None else base["sequence_id"]
            newest_seq = rows[-1]["sequence_id"] if rows else 0
            for row in rows:
                # Manifest-log truncation.  (Clones share manifest files,
                # so the blob itself is only deleted once no table
                # references it — reference counts below.)
                if row["sequence_id"] < base_seq:
                    stale_manifests.append((table_id, row["sequence_id"]))
                    manifest_unrefs[row["manifest_path"]] = (
                        manifest_unrefs.get(row["manifest_path"], 0) + 1
                    )
                else:
                    active.add(row["manifest_path"])
            if rows:
                snapshot = context.cache.get(table_id, newest_seq)
                keep_files(snapshot)
                for tomb in snapshot.tombstones:
                    if below_horizon(tomb.removed_at):
                        inactive.add(tomb.path)
                    else:
                        active.add(tomb.path)
                # Each open transaction's snapshot stays whole, even once
                # replay has dropped a tombstone its reads still need.
                pinned = {
                    max((r["sequence_id"] for r in rows if r["sequence_id"] <= seq), default=0)
                    for seq in readers
                }
                for seq in sorted(pinned - {0, newest_seq}):
                    keep_files(context.cache.get(table_id, seq))
            # Secondary indexes: the catalog row pins the current index
            # blob; superseded blobs (a rebuild writes a new path) fall
            # through to the orphan rule below.
            for row in catalog.indexes_for_table(txn, table_id):
                active.add(row["path"])
            # Checkpoints older than the one at the horizon can never
            # serve a readable snapshot again.
            for ckpt in catalog.checkpoints_for_table(txn, table_id):
                if ckpt["sequence_id"] < base_seq:
                    inactive.add(ckpt["path"])
                    stale_checkpoints.append(
                        (table_id, ckpt["sequence_id"], ckpt["path"])
                    )
                else:
                    active.add(ckpt["path"])
    finally:
        txn.abort()

    # A shared (cloned) manifest blob goes only when *every* referencing
    # table has truncated it.
    for path, removed in manifest_unrefs.items():
        if removed >= manifest_refs.get(path, 0):
            inactive.add(path)
        else:
            active.add(path)
    inactive -= active

    if stale_checkpoints or stale_manifests:
        crashpoint("sto.gc.before_catalog_cleanup")
        cleanup = context.sqldb.begin()
        try:
            for table_id, sequence_id, __ in stale_checkpoints:
                cleanup.delete(catalog.CHECKPOINTS, (table_id, sequence_id))
            truncated: Dict[int, int] = {}
            for table_id, sequence_id in stale_manifests:
                cleanup.delete(catalog.MANIFESTS, (table_id, sequence_id))
                truncated[table_id] = sequence_id  # ascending per table
            for table_id, sequence_id in truncated.items():
                catalog.record_truncation(cleanup, table_id, sequence_id)
            cleanup.commit()
        except SimulatedCrash:
            raise
        except BaseException:
            if cleanup.state.value == "active":
                cleanup.abort()
            raise
        if stale_manifests:
            # Cached snapshots may straddle the truncated prefix; drop them
            # so every future reconstruction starts from a checkpoint.
            context.cache.invalidate()

    # Shared lineage: active wins over inactive.
    inactive -= active

    report = GcReport()

    def delete_blob(path: str) -> None:
        """Physically delete one blob (the crash-prone step of the scan)."""
        crashpoint("sto.gc.mid_delete")
        context.store.delete(path)

    prefix = f"internal/{context.database}/tables/"
    for blob in list(context.store.list(prefix)):
        report.scanned += 1
        if blob.path in active:
            report.active += 1
            continue
        if blob.path in inactive:
            delete_blob(blob.path)
            report.deleted_expired.append(blob.path)
            continue
        # Neither set: in-flight private file or aborted-transaction orphan.
        created = _creation_stamp(blob)
        if min_active_ts is None or created < min_active_ts:
            delete_blob(blob.path)
            report.deleted_orphans.append(blob.path)
        else:
            report.retained_recent.append(blob.path)
    context.bus.publish(
        "gc.completed",
        deleted=report.deleted_total,
        orphans=len(report.deleted_orphans),
        expired=len(report.deleted_expired),
    )
    return report


def _creation_stamp(blob) -> float:
    """The GC timestamp of a blob: creator txn begin time, else creation time."""
    stamp = blob.metadata.get("creator_begin_ts")
    if stamp is not None:
        return float(stamp)
    return blob.created_at
