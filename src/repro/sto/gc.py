"""Garbage collection (Section 5.3): keep what the log reaches.

One horizon H decides what is readable: ``min(now - retention, the
oldest open transaction's begin)``.  Every ``AS OF`` read inside
retention and every open transaction's snapshot is at or after H.  For
each table GC takes the state at H — the newest manifest committed
below it, else the truncation mark — and builds the table's *keep set*:

* every data file and DV live in the state at H;
* every data file and DV added by a manifest committed after H.

A readable state is the state at H with the tail's manifests applied up
to some point, so it names only files of the keep set.  Zero-copy clones
share files, so the keep sets of all tables are taken together.  A data
or DV blob in no keep set is deleted once its creation stamp (its
creator transaction's begin, else its creation time) is older than the
oldest open transaction's begin: that is the paper's orphan rule, and
it covers a file removed before H, an aborted transaction's leftovers
and a compaction's losing output alike.  A blob stamped later may be
the private file of a transaction still running, and stays.

Below H GC also truncates the manifest log and drops checkpoints.  Per
table it keeps the newest checkpoint at or before the state at H and the
manifest row that checkpoint covers: every readable state replays from
there, and the row anchors the edge for ``AS OF`` and
``clone_table(as_of=)``.  Truncating a table's log is recorded in
``Truncations``: from then on its checkpoint, not replay, is the record
of the truncated prefix (:mod:`repro.fe.manifest_io`).  The manifest and
checkpoint blobs whose catalog rows a pass removes are deleted in the
same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import SimulatedCrash
from repro.fe.context import ServiceContext
from repro.lst.actions import AddDataFile, AddDeletionVector
from repro.lst.snapshot import TableSnapshot
from repro.sqldb import system_tables as catalog


@dataclass
class GcReport:
    """What one garbage-collection run did."""

    scanned: int = 0
    #: Blobs some table still reaches (a keep set, the log, an index).
    active: int = 0
    deleted: List[str] = field(default_factory=list)
    #: Unreached blobs stamped at or after the oldest open begin.
    retained_recent: List[str] = field(default_factory=list)

    @property
    def deleted_total(self) -> int:
        """Total files physically deleted."""
        return len(self.deleted)


def run_garbage_collection(context: ServiceContext) -> GcReport:
    """Run one GC pass over the deployment's internal storage."""
    min_active_ts = context.sqldb.min_active_begin_ts()
    below_horizon = horizon_test(context, min_active_ts)
    active: Set[str] = set()
    # Manifest and checkpoint blobs whose catalog rows this pass removes.
    dropped: Set[str] = set()
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
            # Every read at or after the horizon replays from the newest
            # checkpoint at or before the state at the horizon, so it is
            # kept, with the manifest row it covers (the anchor ``AS OF``
            # and clones resolve the edge to); GC may drop the manifests
            # and checkpoints older than it.
            at_horizon = sequence_at_horizon(txn, table_id, rows, below_horizon)
            base = catalog.latest_checkpoint(txn, table_id, at_horizon)
            base_seq = 0 if base is None else base["sequence_id"]
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
                tail = context.cache.load_manifests(
                    table_id, at_horizon, rows[-1]["sequence_id"]
                )
                active |= keep_set(state_at(context, table_id, at_horizon), tail)
            # Secondary indexes: the catalog row pins the current index
            # blob; superseded blobs (a rebuild writes a new path) fall
            # through to the orphan rule below.
            for row in catalog.indexes_for_table(txn, table_id):
                active.add(row["path"])
            # Checkpoints older than the one at the horizon can never
            # serve a readable snapshot again.
            for ckpt in catalog.checkpoints_for_table(txn, table_id):
                if ckpt["sequence_id"] < base_seq:
                    dropped.add(ckpt["path"])
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
            dropped.add(path)

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
        # A cached snapshot below a table's truncation mark would extend
        # over manifests that are gone; one at or above it stays valid.
        for table_id, sequence_id in truncated.items():
            context.cache.invalidate(table_id, below=sequence_id)

    report = GcReport()

    def delete_blob(path: str) -> None:
        """Physically delete one blob (the crash-prone step of the scan)."""
        crashpoint("sto.gc.mid_delete")
        context.store.delete(path)
        report.deleted.append(path)

    prefix = f"internal/{context.database}/tables/"
    for blob in list(context.store.list(prefix)):
        report.scanned += 1
        if blob.path in active:
            report.active += 1
        elif blob.path in dropped:
            delete_blob(blob.path)
        elif min_active_ts is None or creation_stamp(blob) < min_active_ts:
            # Reached by no table, and no running transaction can own it.
            delete_blob(blob.path)
        else:
            report.retained_recent.append(blob.path)
    context.bus.publish("gc.completed", deleted=report.deleted_total)
    return report


def horizon_test(
    context: ServiceContext, min_active_ts: Optional[float]
) -> Callable[[float], bool]:
    """Whether a stamp is below the horizon ``min(now - retention,
    min_active_ts)``: no read inside retention and no open transaction's
    snapshot sees the state before it."""
    now = context.clock.now
    retention = context.config.sto.retention_period_s

    def below_horizon(stamp: float) -> bool:
        return stamp + retention <= now and (
            min_active_ts is None or stamp < min_active_ts
        )

    return below_horizon


def sequence_at_horizon(
    txn, table_id: int, rows: List[dict], below_horizon: Callable[[float], bool]
) -> int:
    """The sequence of a table's state at the horizon: its newest manifest
    (of ``rows``) committed below it, else its truncation mark."""
    return max(
        (row["sequence_id"] for row in rows if below_horizon(row["committed_at"])),
        default=catalog.truncated_through(txn, table_id),
    )


def state_at(context: ServiceContext, table_id: int, sequence: int) -> TableSnapshot:
    """``table_id``'s snapshot at ``sequence`` (empty before its first)."""
    return context.cache.get(table_id, sequence) if sequence else TableSnapshot()


def keep_set(state_at_horizon: TableSnapshot, tail: Iterable[tuple]) -> Set[str]:
    """The data files and DVs a readable state may name: those live in the
    state at the horizon and those its log ``tail`` (``(sequence,
    committed_at, actions)`` after the horizon) adds."""
    keep = {info.path for info in state_at_horizon.files.values()}
    keep.update(info.path for info in state_at_horizon.dvs.values())
    for __, __, actions in tail:
        for action in actions:
            if isinstance(action, AddDataFile):
                keep.add(action.file.path)
            elif isinstance(action, AddDeletionVector):
                keep.add(action.dv.path)
    return keep


def creation_stamp(blob) -> float:
    """The GC timestamp of a blob: creator txn begin time, else creation time."""
    stamp = blob.metadata.get("creator_begin_ts")
    if stamp is not None:
        return float(stamp)
    return blob.created_at
