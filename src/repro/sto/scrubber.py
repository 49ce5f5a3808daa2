"""Integrity scrubbing: detect, quarantine, and repair corrupt blobs.

The scrubber is an STO background job that audits every blob reachable
from live table metadata — committed manifests, checkpoints, data files,
deletion vectors, and published Delta logs — against its recorded crc32
checksum (:mod:`repro.storage.integrity`).  Corrupt blobs are *never
deleted*: they move to the ``quarantine/`` namespace for forensics, and
the scrubber then repairs whatever can be re-derived from surviving
state:

* **checkpoints** are re-materialized from checkpoint-free manifest
  replay, exactly like the checkpointer — while the manifests they cover
  survive.  Once garbage collection has truncated those, a checkpoint is
  the only record of the table's state and its loss is unrepairable: the
  table goes RED like on data loss;
* **manifests** are recoverable only when a checkpoint captured the same
  state: the actions are rebuilt as the diff between the previous
  snapshot and the covering checkpoint's snapshot;
* **published Delta logs** are re-derived from the committed manifest
  that produced them (same transformation as the publisher);
* **data files and deletion vectors** are user data with no redundant
  copy — unrepairable.  The table is degraded to RED in the health
  monitor and ``storage.integrity_unrepairable`` fires the watchdog.

A scrub pass never raises out of a table: repair failures degrade to
"unrepairable" records, so one rotten table cannot stall the audit of
the rest of the deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.errors import PolarisError
from repro.fe.context import ServiceContext
from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    RemoveDataFile,
    RemoveDeletionVector,
)
from repro.lst.checkpoint import Checkpoint
from repro.lst.manifest import encode_actions
from repro.lst.snapshot import TableSnapshot
from repro.sqldb import system_tables as catalog
from repro.sto.health import StorageHealthMonitor
from repro.sto.publisher import delta_commit
from repro.storage import paths
from repro.storage.retry import with_retries

#: Blob kinds whose loss is user-data loss (degrades the table to RED).
#: A checkpoint is unrepairable only once the manifests it covers are gone.
_UNREPAIRABLE_IS_DATA_LOSS = ("data", "dv", "manifest", "checkpoint")


@dataclass(frozen=True)
class IntegrityRecord:
    """One corrupt blob found by a scrub pass and what was done about it."""

    table_id: int
    table_name: str
    path: str
    #: Blob kind: ``data``, ``dv``, ``manifest``, ``checkpoint``, ``delta_log``.
    kind: str
    #: The verification failure (checksum mismatch detail, or ``missing``).
    problem: str
    #: ``repaired`` (quarantined then rebuilt in place) or ``unrepairable``.
    action: str
    #: Where the corrupt bytes were moved ("" when the blob was missing).
    quarantine_path: str
    #: Simulated time the problem was found.
    at: float


@dataclass
class ScrubReport:
    """Outcome of one full scrub pass over the deployment."""

    #: Simulated time the pass started.
    at: float
    tables_scanned: int = 0
    blobs_verified: int = 0
    records: List[IntegrityRecord] = field(default_factory=list)

    @property
    def repaired(self) -> int:
        """Corrupt blobs rebuilt in place this pass."""
        return sum(1 for r in self.records if r.action == "repaired")

    @property
    def unrepairable(self) -> int:
        """Corrupt blobs with no redundant copy to rebuild from."""
        return sum(1 for r in self.records if r.action == "unrepairable")

    @property
    def quarantined(self) -> int:
        """Corrupt blobs moved into the quarantine namespace."""
        return sum(1 for r in self.records if r.quarantine_path)

    @property
    def clean(self) -> bool:
        """Whether the pass found nothing wrong."""
        return not self.records


def run_scrub(
    context: ServiceContext, health: StorageHealthMonitor
) -> ScrubReport:
    """Audit every live-metadata-reachable blob; quarantine and repair.

    Walks each catalog table's manifests, checkpoints, current data files
    and deletion vectors, and published Delta log, verifying checksums via
    the store's management API (not subject to fault injection, so the
    auditor never fights the chaos it audits).  Detected corruption is
    quarantined and repaired where possible; unrepairable user-data loss
    flags the table RED in ``health``.
    """
    report = ScrubReport(at=context.clock.now)
    txn = context.sqldb.begin()
    try:
        plans = [
            (
                table,
                catalog.manifests_for_table(txn, table["table_id"]),
                catalog.checkpoints_for_table(txn, table["table_id"]),
            )
            for table in catalog.list_tables(txn)
        ]
    finally:
        txn.abort()
    for table, manifest_rows, checkpoint_rows in plans:
        _scrub_table(context, health, report, table, manifest_rows, checkpoint_rows)
        report.tables_scanned += 1
    return report


def _scrub_table(
    context: ServiceContext,
    health: StorageHealthMonitor,
    report: ScrubReport,
    table: Dict[str, Any],
    manifest_rows: List[Dict[str, Any]],
    checkpoint_rows: List[Dict[str, Any]],
) -> None:
    """One table's full audit: metadata first, then the data it references.

    Manifests are checked (and repaired) before checkpoints because each
    repair re-derives one from the other: a manifest rebuild reads a
    covering checkpoint, a checkpoint rebuild replays manifests.
    """
    table_id = table["table_id"]
    name = table["name"]
    # Repairs below replay metadata through the snapshot cache; drop any
    # snapshots cached before the corruption landed so every rebuild reads
    # the bytes actually in the store.
    context.cache.invalidate(table_id)
    _scrub_manifests(
        context, health, report, table_id, name, manifest_rows, checkpoint_rows
    )
    _scrub_checkpoints(context, health, report, table_id, name, checkpoint_rows)
    context.cache.invalidate(table_id)
    _scrub_table_data(context, health, report, table_id, name, manifest_rows)
    _scrub_delta_log(context, health, report, table_id, name, manifest_rows)


def _record(
    context: ServiceContext,
    health: StorageHealthMonitor,
    report: ScrubReport,
    *,
    table_id: int,
    table_name: str,
    path: str,
    kind: str,
    problem: str,
    repaired: bool,
    quarantine_path: str,
) -> None:
    """Append one finding and apply its side effects (health, telemetry)."""
    action = "repaired" if repaired else "unrepairable"
    report.records.append(
        IntegrityRecord(
            table_id=table_id,
            table_name=table_name,
            path=path,
            kind=kind,
            problem=problem,
            action=action,
            quarantine_path=quarantine_path,
            at=context.clock.now,
        )
    )
    if not repaired and kind in _UNREPAIRABLE_IS_DATA_LOSS:
        health.flag_integrity(table_id, path)
    tel = context.telemetry
    tel.add_event(
        "sto.scrub.finding",
        table_id=table_id,
        path=path,
        kind=kind,
        action=action,
    )


def _quarantine(context: ServiceContext, path: str, problem: str) -> str:
    """Quarantine the blob unless the problem is that it does not exist."""
    if problem == "missing":
        return ""
    return context.store.quarantine(path)


def _retrying(context: ServiceContext, label: str, fn):
    """Run one store operation under the standard retry policy."""
    return with_retries(
        fn,
        telemetry=context.telemetry,
        label=label,
        clock=context.clock,
        seed=context.config.seed,
    )


# -- manifests ----------------------------------------------------------------


def _scrub_manifests(
    context: ServiceContext,
    health: StorageHealthMonitor,
    report: ScrubReport,
    table_id: int,
    name: str,
    manifest_rows: List[Dict[str, Any]],
    checkpoint_rows: List[Dict[str, Any]],
) -> None:
    """Verify every committed manifest; rebuild from a covering checkpoint."""
    for row in manifest_rows:
        path = row["manifest_path"]
        report.blobs_verified += 1
        problem = context.store.verify(path)
        if problem is None:
            continue
        quarantine_path = _quarantine(context, path, problem)
        repaired = _repair_manifest(
            context, table_id, row, manifest_rows, checkpoint_rows
        )
        _record(
            context,
            health,
            report,
            table_id=table_id,
            table_name=name,
            path=path,
            kind="manifest",
            problem=problem,
            repaired=repaired,
            quarantine_path=quarantine_path,
        )


def _repair_manifest(
    context: ServiceContext,
    table_id: int,
    row: Dict[str, Any],
    manifest_rows: List[Dict[str, Any]],
    checkpoint_rows: List[Dict[str, Any]],
) -> bool:
    """Rebuild a corrupt manifest's actions from a covering checkpoint.

    Repairable only when some intact checkpoint captured exactly this
    manifest's post-state — a checkpoint at or above its sequence with no
    other manifest in between.  The actions are then the diff between the
    previous snapshot (replayed without the corrupt manifest) and the
    checkpoint's snapshot; replaying the rebuilt manifest reproduces the
    original state transition exactly.
    """
    seq = row["sequence_id"]
    cover = None
    for cp in checkpoint_rows:
        if cp["sequence_id"] < seq:
            continue
        intervening = any(
            seq < m["sequence_id"] <= cp["sequence_id"] for m in manifest_rows
        )
        if intervening or context.store.verify(cp["path"]) is not None:
            continue
        cover = cp
        break
    if cover is None:
        return False
    try:
        blob = _retrying(
            context, "scrub_repair", lambda: context.store.get(cover["path"])
        )
        child = Checkpoint.from_bytes(blob.data, cover["path"]).snapshot
        parent_seq = max(
            (m["sequence_id"] for m in manifest_rows if m["sequence_id"] < seq),
            default=0,
        )
        context.cache.invalidate(table_id)
        parent = context.cache.get(table_id, parent_seq)
        data = encode_actions(_diff_actions(parent, child))
        _retrying(
            context,
            "scrub_repair",
            lambda: context.store.put(row["manifest_path"], data, overwrite=True),
        )
    except PolarisError:
        return False
    return True


def _diff_actions(parent: TableSnapshot, child: TableSnapshot) -> List[Action]:
    """The action list transforming ``parent`` into ``child`` on replay.

    Ordered so :meth:`TableSnapshot.apply_manifest` accepts it: data-file
    removals first (each implicitly retires its DV), then DV removals on
    surviving files, then data-file adds, then DV adds.
    """
    actions: List[Action] = []
    for file_name in sorted(parent.files):
        if file_name not in child.files:
            actions.append(RemoveDataFile(file_name))
    for target in sorted(parent.dvs):
        if target not in child.files:
            continue  # retired implicitly by its file's removal
        new = child.dvs.get(target)
        if new is None or new.name != parent.dvs[target].name:
            actions.append(RemoveDeletionVector(parent.dvs[target].name, target))
    for file_name in sorted(child.files):
        if file_name not in parent.files:
            actions.append(AddDataFile(child.files[file_name]))
    for target in sorted(child.dvs):
        old = parent.dvs.get(target)
        if old is None or old.name != child.dvs[target].name:
            actions.append(AddDeletionVector(child.dvs[target]))
    return actions


# -- checkpoints --------------------------------------------------------------


def _scrub_checkpoints(
    context: ServiceContext,
    health: StorageHealthMonitor,
    report: ScrubReport,
    table_id: int,
    name: str,
    checkpoint_rows: List[Dict[str, Any]],
) -> None:
    """Verify every checkpoint; re-materialize from manifest replay."""
    for row in checkpoint_rows:
        path = row["path"]
        report.blobs_verified += 1
        problem = context.store.verify(path)
        if problem is None:
            continue
        quarantine_path = _quarantine(context, path, problem)
        repaired = _repair_checkpoint(context, table_id, row)
        _record(
            context,
            health,
            report,
            table_id=table_id,
            table_name=name,
            path=path,
            kind="checkpoint",
            problem=problem,
            repaired=repaired,
            quarantine_path=quarantine_path,
        )


def _repair_checkpoint(
    context: ServiceContext, table_id: int, row: Dict[str, Any]
) -> bool:
    """Rebuild a checkpoint from checkpoint-free manifest replay.

    Possible while the manifests the checkpoint covers survive — the same
    construction the checkpointer used originally, at the same path.
    Once garbage collection has truncated them, replay raises
    :class:`~repro.common.errors.CheckpointLostError` and the checkpoint
    is unrepairable.
    """
    try:
        context.cache.invalidate(table_id)
        snapshot = context.cache.get(table_id, row["sequence_id"])
        data = Checkpoint.of(snapshot, context.clock.now).to_bytes()
        _retrying(
            context,
            "scrub_repair",
            lambda: context.store.put(row["path"], data, overwrite=True),
        )
    except PolarisError:
        return False
    return True


# -- data files and deletion vectors -----------------------------------------


def _scrub_table_data(
    context: ServiceContext,
    health: StorageHealthMonitor,
    report: ScrubReport,
    table_id: int,
    name: str,
    manifest_rows: List[Dict[str, Any]],
) -> None:
    """Verify the latest snapshot's data files and deletion vectors.

    Each blob is checked against its own stored checksum *and* the
    checksum mirrored into the manifest entry at commit time, so a blob
    swapped wholesale for an internally consistent one is still caught.
    Corrupt user data has no redundant copy: quarantine, flag RED.
    """
    if not manifest_rows:
        return
    last_seq = manifest_rows[-1]["sequence_id"]
    try:
        snapshot = context.cache.get(table_id, last_seq)
    except PolarisError:
        # The metadata needed to enumerate user data is itself unreadable;
        # the manifest/checkpoint passes above already recorded why.
        return
    for kind, infos in (
        ("data", snapshot.files.values()),
        ("dv", snapshot.dvs.values()),
    ):
        for info in sorted(infos, key=lambda i: i.path):
            report.blobs_verified += 1
            problem = context.store.verify(info.path, expected=info.checksum)
            if problem is None:
                continue
            quarantine_path = _quarantine(context, info.path, problem)
            _record(
                context,
                health,
                report,
                table_id=table_id,
                table_name=name,
                path=info.path,
                kind=kind,
                problem=problem,
                repaired=False,
                quarantine_path=quarantine_path,
            )


# -- published Delta logs -----------------------------------------------------


def _scrub_delta_log(
    context: ServiceContext,
    health: StorageHealthMonitor,
    report: ScrubReport,
    table_id: int,
    name: str,
    manifest_rows: List[Dict[str, Any]],
) -> None:
    """Verify published Delta commit files; re-derive from manifests."""
    prefix = paths.published_root(context.database, name) + "/_delta_log/"
    try:
        blobs = _retrying(
            context, "scrub_list", lambda: list(context.store.list(prefix))
        )
    except PolarisError:
        return
    for blob in blobs:
        path = blob.path
        report.blobs_verified += 1
        problem = context.store.verify(path)
        if problem is None:
            continue
        quarantine_path = _quarantine(context, path, problem)
        version = int(path.rsplit("/", 1)[1].split(".", 1)[0])
        repaired = _republish_version(
            context, table_id, manifest_rows, version, path
        )
        _record(
            context,
            health,
            report,
            table_id=table_id,
            table_name=name,
            path=path,
            kind="delta_log",
            problem=problem,
            repaired=repaired,
            quarantine_path=quarantine_path,
        )


def _republish_version(
    context: ServiceContext,
    table_id: int,
    manifest_rows: List[Dict[str, Any]],
    version: int,
    path: str,
) -> bool:
    """Rebuild one Delta commit file from the manifest that produced it.

    Published versions are assigned densely in commit order, so version
    ``k`` maps to the ``k``-th committed manifest.  The rebuilt file uses
    the publisher's exact transformation; only the ``commitInfo``
    timestamp differs (the original publish time is not recoverable).
    """
    if version < 0 or version >= len(manifest_rows):
        return False
    row = manifest_rows[version]
    try:
        data = delta_commit(
            context, table_id, row["manifest_path"], row["sequence_id"]
        )
        _retrying(
            context,
            "scrub_repair",
            lambda: context.store.put(path, data, overwrite=True),
        )
    except PolarisError:
        return False
    return True
