"""Restart recovery: put a crashed deployment back into a clean state.

:class:`RecoveryManager` models what the Polaris control plane does when a
front end or STO process dies mid-protocol (Section 4.3 and the GC rules
of Section 5.3).  Everything it repairs follows from one observation: the
SQL DB catalog commit is the *only* durability point.  Whatever the dead
process did before it (staged blocks, private files, WriteSets buffers)
must be scavenged or left for GC; whatever it failed to do after it
(publish steps, bookkeeping) must be completed idempotently.

The protocol is two parts.

**Five durable-state steps, in this order** — each repairs what the next
one reads, so the order *is* the protocol:

1. **In-doubt transactions** — every transaction still in the engine's
   active registry belonged to the dead process.  Ones whose writes
   reached the version store are committed (finish the bookkeeping);
   the rest are aborted.
2. **Staged blocks** — blocks staged but never named by a
   commit-block-list can never be legitimately committed; discard them.
3. **Catalog ↔ store reconciliation** — a committed ``Manifests`` row
   whose manifest blob is missing is unrecoverable (strict mode raises
   :class:`~repro.common.errors.RecoveryError`); a ``Checkpoints`` row
   whose blob is missing is dropped (checkpoints are an optimization);
   a checkpoint blob with no row is deleted so a re-run checkpoint can
   write the same path again.
4. **Cold caches** — the snapshot cache, the decompressed-chunk cache,
   the plan cache and the optimizer's index and statistics caches are
   process state: ``ServiceContext.drop_process_memory`` drops all five.
5. **Publish completion** — committed manifests newer than the last
   published Delta version are (re)published, after re-deriving the
   publisher's state from the ``_delta_log`` blobs themselves.

**Then the participant loop** — everything else a dead front end held
(requests it had admitted but not finished, measurements it had opened
but not closed) is process state that can only be discarded: what its
statements committed is durable and steps 1–5 already reconciled it.
Holders of such state join ``ServiceContext.participants`` under a name;
recovery calls each one's ``scavenge()`` and reports the count under that
name, without knowing who they are.  A participant must guarantee three
things: ``scavenge`` is **idempotent** (a second call finds nothing and
returns 0), it touches **only its own state** (so participants commute
and their order is not part of the protocol), and it **returns how many
in-flight records it discarded** (never folding one into an aggregate —
a half-measured record is dropped, not counted).

Last, the orchestrator's trigger state is rebound to the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import RecoveryError
from repro.fe.context import ServiceContext
from repro.sqldb import system_tables as catalog

if TYPE_CHECKING:
    from repro.sto.orchestrator import SystemTaskOrchestrator


@dataclass
class RecoveryReport:
    """What one recovery pass found and repaired."""

    #: In-doubt transactions resolved as committed (writes were installed).
    in_doubt_committed: int = 0
    #: In-doubt transactions aborted (nothing installed).
    in_doubt_aborted: int = 0
    #: Staged (uncommitted) manifest blocks discarded.
    staged_blocks_discarded: int = 0
    #: Committed manifest paths whose blob is missing (fatal in strict mode).
    missing_manifests: List[str] = field(default_factory=list)
    #: Checkpoint catalog rows dropped because their blob is missing.
    checkpoint_rows_dropped: List[str] = field(default_factory=list)
    #: Checkpoint blobs deleted because no catalog row references them.
    orphan_checkpoint_blobs_deleted: List[str] = field(default_factory=list)
    #: Index catalog rows dropped because their blob is missing.
    index_rows_dropped: List[str] = field(default_factory=list)
    #: Index blobs deleted because no catalog row references them (an
    #: index builder died between its blob put and its row commit).
    orphan_index_blobs_deleted: List[str] = field(default_factory=list)
    #: Delta publishes completed/replayed for missing sequences.
    publishes_completed: int = 0
    #: Participant name -> in-flight records its ``scavenge()`` discarded.
    scavenged: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """Whether recovery found a fully consistent state (nothing to do)."""
        return (
            self.in_doubt_committed == 0
            and self.in_doubt_aborted == 0
            and self.staged_blocks_discarded == 0
            and not self.missing_manifests
            and not self.checkpoint_rows_dropped
            and not self.orphan_checkpoint_blobs_deleted
            and not self.index_rows_dropped
            and not self.orphan_index_blobs_deleted
            and self.publishes_completed == 0
            and not any(self.scavenged.values())
        )


class RecoveryManager:
    """Models process restart for one deployment.

    ``strict`` controls whether an unrecoverable state (a committed
    manifest row with no manifest blob — i.e. a genuinely lost commit)
    raises :class:`RecoveryError` or is merely reported.
    """

    def __init__(
        self,
        context: ServiceContext,
        sto: "Optional[SystemTaskOrchestrator]" = None,
        strict: bool = True,
    ) -> None:
        self._context = context
        self._sto = sto
        self.strict = strict

    def recover(self) -> RecoveryReport:
        """Run one full recovery pass; returns what was repaired."""
        context = self._context
        tel = context.telemetry
        report = RecoveryReport()
        with tel.span("recovery.run", "chaos"):
            # Recovery is itself crash-re-entrant: a crashpoint between any
            # two steps models the recovery process dying mid-pass, and a
            # fresh pass must finish the job.  Every step is idempotent —
            # re-resolving finds nothing in doubt, re-discarding finds no
            # staged blocks, reconciliation and scavenges converge.
            self._resolve_in_doubt(report)
            crashpoint("recovery.in_doubt.after_resolve")
            self._discard_staged_blocks(report)
            crashpoint("recovery.staged.after_discard")
            self._reconcile_catalog(report)
            crashpoint("recovery.catalog.after_reconcile")
            context.drop_process_memory()
            self._complete_publishes(report)
            crashpoint("recovery.publish.after_complete")
            # Process state commutes: any participant order is correct.
            for name, scavenge in context.participants.items():
                report.scavenged[name] = scavenge()
                crashpoint("recovery.participant.after_scavenge")
            if self._sto is not None:
                self._sto.rebind(context)
        metrics = tel.metrics
        metrics.counter("recovery.runs").inc()
        metrics.counter("recovery.in_doubt_committed").inc(
            report.in_doubt_committed
        )
        metrics.counter("recovery.in_doubt_aborted").inc(report.in_doubt_aborted)
        metrics.counter("recovery.staged_blocks_discarded").inc(
            report.staged_blocks_discarded
        )
        metrics.counter("recovery.publishes_completed").inc(
            report.publishes_completed
        )
        for name, count in report.scavenged.items():
            metrics.counter("recovery.scavenged", participant=name).inc(count)
        context.bus.publish(
            "recovery.completed",
            in_doubt_committed=report.in_doubt_committed,
            in_doubt_aborted=report.in_doubt_aborted,
            staged_blocks_discarded=report.staged_blocks_discarded,
            publishes_completed=report.publishes_completed,
            scavenged=dict(report.scavenged),
        )
        if self.strict and report.missing_manifests:
            raise RecoveryError(
                "committed manifests lost from the object store: "
                + ", ".join(sorted(report.missing_manifests))
            )
        return report

    # -- steps -------------------------------------------------------------

    def _resolve_in_doubt(self, report: RecoveryReport) -> None:
        """Step 1: resolve transactions the dead process left active."""
        outcome = self._context.sqldb.recover_in_doubt()
        report.in_doubt_committed = outcome["committed"]
        report.in_doubt_aborted = outcome["aborted"]

    def _discard_staged_blocks(self, report: RecoveryReport) -> None:
        """Step 2: drop staged blocks no commit-block-list will ever name."""
        store = self._context.store
        for path in store.staged_paths():
            report.staged_blocks_discarded += store.discard_staged(path)

    def _reconcile_catalog(self, report: RecoveryReport) -> None:
        """Step 3: cross-check Manifests/Checkpoints rows against blobs."""
        context = self._context
        store = context.store
        referenced_checkpoints = set()
        referenced_indexes = set()
        rows_to_drop = []  # (table_id, sequence_id, path)
        index_rows_to_drop = []  # (table_id, index_name, path)
        txn = context.sqldb.begin()
        try:
            for table in catalog.list_tables(txn):
                table_id = table["table_id"]
                for row in catalog.manifests_for_table(txn, table_id):
                    if not store.exists(row["manifest_path"]):
                        report.missing_manifests.append(row["manifest_path"])
                for row in catalog.checkpoints_for_table(txn, table_id):
                    if store.exists(row["path"]):
                        referenced_checkpoints.add(row["path"])
                    else:
                        rows_to_drop.append(
                            (table_id, row["sequence_id"], row["path"])
                        )
                for row in catalog.indexes_for_table(txn, table_id):
                    if store.exists(row["path"]):
                        referenced_indexes.add(row["path"])
                    else:
                        index_rows_to_drop.append(
                            (table_id, row["index_name"], row["path"])
                        )
        finally:
            txn.abort()
        if rows_to_drop or index_rows_to_drop:
            cleanup = context.sqldb.begin()
            try:
                for table_id, sequence_id, path in rows_to_drop:
                    cleanup.delete(catalog.CHECKPOINTS, (table_id, sequence_id))
                    report.checkpoint_rows_dropped.append(path)
                # An index row without its blob: the index is a pure
                # optimization (queries fall back to scanning), so the
                # row is dropped rather than declared lost.
                for table_id, index_name, path in index_rows_to_drop:
                    cleanup.delete(catalog.INDEXES, (table_id, index_name))
                    report.index_rows_dropped.append(path)
                cleanup.commit()
            except BaseException:
                if cleanup.state.value == "active":
                    cleanup.abort()
                raise
        # A checkpoint (or index) blob with no catalog row came from a
        # builder that died between its blob put and its row commit.
        # Deleting it here (rather than waiting for GC) lets a re-run
        # write the same deterministic path without colliding.
        prefix = f"internal/{context.database}/tables/"
        for blob in list(store.list(prefix)):
            if "/_checkpoints/" in blob.path:
                if blob.path not in referenced_checkpoints:
                    store.delete(blob.path)
                    report.orphan_checkpoint_blobs_deleted.append(blob.path)
            elif "/_indexes/" in blob.path:
                if blob.path not in referenced_indexes:
                    store.delete(blob.path)
                    report.orphan_index_blobs_deleted.append(blob.path)

    def _complete_publishes(self, report: RecoveryReport) -> None:
        """Step 5: republish committed sequences the dead publisher missed."""
        sto = self._sto
        if sto is None or not sto.auto_publish or "delta" not in sto.publish_formats:
            return
        context = self._context
        txn = context.sqldb.begin()
        try:
            manifest_rows: Dict[int, tuple] = {}
            for table in catalog.list_tables(txn):
                table_id = table["table_id"]
                rows = catalog.manifests_for_table(txn, table_id)
                if rows:
                    manifest_rows[table_id] = (table["name"], rows)
        finally:
            txn.abort()
        for table_id in sorted(manifest_rows):
            name, rows = manifest_rows[table_id]
            last_sequence = sto.publisher.resync(name, table_id)
            floor = last_sequence if last_sequence is not None else 0
            for row in rows:
                if row["sequence_id"] <= floor:
                    continue
                sto.publisher.publish_commit(
                    name, table_id, row["manifest_path"], row["sequence_id"]
                )
                report.publishes_completed += 1
