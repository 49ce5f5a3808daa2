"""Polaris user transactions (Sections 3 and 4).

A :class:`PolarisTransaction` pairs a *root* SQL DB transaction in the FE
(holding the catalog view and, at commit, the validation phase) with
per-table write state: the transaction manifest file, its committed block
list, the reconciled action overlay, and the set of touched data files for
conflict detection.

Life cycle:

* **Read phase** — statements capture table snapshots through the root
  transaction's SI view of the ``Manifests`` table, overlay the
  transaction's own manifest, and execute through the DCP.
* **Validation phase** (:meth:`commit`) — WriteSets upserts for every
  table (or data file) the transaction updated/deleted, then Manifests
  inserts stamped with the commit sequence under the commit lock, then the
  root commit.  First-committer-wins: a conflicting concurrent committer
  causes :class:`~repro.common.errors.WriteConflictError` and an automatic
  rollback that leaves no visible trace (private files become GC orphans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Set

from repro.chaos.crashpoints import crashpoint
from repro.common.errors import SimulatedCrash, TransactionStateError
from repro.fe.catalog import describe_table
from repro.fe.context import ServiceContext
from repro.lst.actions import Action
from repro.lst.manifest import encode_actions, reconcile_actions
from repro.lst.snapshot import TableSnapshot
from repro.sqldb import system_tables as catalog
from repro.sqldb.transaction import IsolationLevel, SqlDbTransaction, TxnState
from repro.storage import paths
from repro.storage.block_blob import BlockBlobClient
from repro.storage.retry import with_retries

_ISOLATION_MAP = {
    "snapshot": IsolationLevel.SNAPSHOT,
    "rcsi": IsolationLevel.RCSI,
    "serializable": IsolationLevel.SERIALIZABLE,
}

#: Isolation level of a transaction begun without one.
DEFAULT_ISOLATION = "snapshot"


class ResolvedTable(NamedTuple):
    """A table a statement names: its ``Tables`` row and the manifest
    sequence visible to the statement's transaction."""

    row: Dict[str, Any]
    sequence_id: int


@dataclass
class TableWriteState:
    """Per-(transaction, table) write-side bookkeeping."""

    table_id: int
    manifest_name: str
    manifest_path: str
    committed_block_ids: List[str] = field(default_factory=list)
    #: The actions the manifest's committed blocks hold, in their order:
    #: the net effect of all statements so far (the overlay).
    actions: List[Action] = field(default_factory=list)
    #: Names of *pre-existing* data files this transaction updated/deleted
    #: (the conflict units for file-granularity detection).
    touched_files: Set[str] = field(default_factory=set)
    has_update_or_delete: bool = False
    rows_inserted: int = 0
    rows_deleted: int = 0


class PolarisTransaction:
    """One user transaction, possibly spanning statements and tables."""

    def __init__(
        self, context: ServiceContext, isolation: Optional[str] = None
    ) -> None:
        self._context = context
        name = isolation or DEFAULT_ISOLATION
        level = _ISOLATION_MAP.get(name)
        if level is None:
            raise ValueError(f"unknown isolation level {name!r}")
        self.isolation = level
        self.root: SqlDbTransaction = context.sqldb.begin(level)
        self.guid = context.guids.next()
        self._writes: Dict[int, TableWriteState] = {}
        self.retries = 0
        #: Root telemetry span covering the whole transaction (None when
        #: tracing is off).  Statements activate it as their parent.
        self.span = context.telemetry.start_span(
            "txn", "txn", txid=self.txid, isolation=level.value
        )
        # Lifecycle events feed the SI history sanitizer
        # (repro.analysis.si): begin snapshot, observed reads, committed
        # write-set.  No subscribers -> near-zero cost.
        context.bus.publish(
            "txn.begin",
            txid=self.txid,
            begin_seq=self.root.begin_seq,
            begin_ts=self.root.begin_ts,
            isolation=level.value,
        )

    def _end_span(self, status: str, **attributes) -> None:
        if self.span is not None:
            self._context.telemetry.end_span(self.span, status=status, **attributes)

    # -- status ----------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        """Whether statements can still run in this transaction."""
        return self.root.state is TxnState.ACTIVE

    @property
    def txid(self) -> int:
        """The durable SQL DB transaction id."""
        return self.root.txid

    @property
    def begin_ts(self) -> float:
        """Simulated begin time (stamps private files for GC)."""
        return self.root.begin_ts

    def _require_active(self) -> None:
        if not self.is_active:
            raise TransactionStateError(
                f"transaction {self.txid} is {self.root.state.value}"
            )

    # -- read phase: snapshots ---------------------------------------------------

    def visible_sequence(self, table_id: int) -> int:
        """Highest manifest sequence of ``table_id`` visible to this txn.

        Read through the root transaction so SI/RCSI visibility rules (and
        serializable read-set tracking) apply exactly as the paper
        describes: the snapshot *is* the root transaction's view of the
        ``Manifests`` table — found by a seek to the newest visible row.
        """
        self._require_active()
        row = catalog.latest_manifest(self.root, table_id)
        sequence = row["sequence_id"] if row else 0
        self._context.bus.publish(
            "txn.read", txid=self.txid, table_id=table_id, sequence_id=sequence
        )
        return sequence

    def resolve_table(self, name: str) -> ResolvedTable:
        """Look up a table by name and its visible sequence, once for
        every use a statement makes of them."""
        row = describe_table(self.root, name)
        return ResolvedTable(row, self.visible_sequence(row["table_id"]))

    def committed_snapshot(
        self, table_id: int, sequence_id: Optional[int] = None
    ) -> TableSnapshot:
        """The table's committed state as visible to this transaction
        (``sequence_id`` is its :meth:`visible_sequence`, if already read)."""
        if sequence_id is None:
            sequence_id = self.visible_sequence(table_id)
        return self._context.cache.get(table_id, sequence_id)

    def table_snapshot(
        self, table_id: int, sequence_id: Optional[int] = None
    ) -> TableSnapshot:
        """Committed snapshot overlaid with this transaction's own writes.

        This is the multi-statement rule of Section 3.2.3: subsequent
        statements see prior statements' changes by reading the current
        transaction manifest on top of the committed manifests.
        """
        snapshot = self.committed_snapshot(table_id, sequence_id)
        state = self._writes.get(table_id)
        if state is None or not state.actions:
            return snapshot
        return snapshot.apply_manifest(state.actions, snapshot.sequence_id + 1)

    # -- write phase: manifest assembly ------------------------------------------

    def write_state(self, table_id: int) -> TableWriteState:
        """Get or create the write state (and manifest file name) for a table."""
        self._require_active()
        state = self._writes.get(table_id)
        if state is None:
            name = self._context.guids.next()
            state = TableWriteState(
                table_id=table_id,
                manifest_name=name,
                manifest_path=paths.manifest_path(
                    self._context.database, table_id, name
                ),
            )
            self._writes[table_id] = state
        return state

    def manifest_writer(self, table_id: int) -> BlockBlobClient:
        """A block-blob client BE tasks use to stage manifest blocks."""
        state = self.write_state(table_id)
        return BlockBlobClient(
            self._context.store, state.manifest_path, self._context.guids
        )

    def flush_insert(
        self, table_id: int, new_block_ids: List[str], new_actions: List[Action]
    ) -> None:
        """FE flush that appends a statement's blocks to the manifest.

        Inserts have no dependency on previous changes, so the FE simply
        re-commits the old block list plus the new ids (Section 3.2.3).
        So does an update, delete or compaction that cancels none of the
        transaction's own writes (:meth:`flush_rewrite`).
        """
        state = self.write_state(table_id)
        state.committed_block_ids.extend(new_block_ids)
        crashpoint("fe.write.before_manifest_flush")
        with_retries(
            lambda: self._context.store.commit_block_list(
                state.manifest_path, state.committed_block_ids
            ),
            telemetry=self._context.telemetry,
            label="manifest_flush",
            clock=self._context.clock,
            seed=self._context.config.seed,
        )
        crashpoint("fe.write.after_manifest_flush")
        state.actions.extend(new_actions)

    def flush_rewrite(
        self, table_id: int, new_block_ids: List[str], new_actions: List[Action]
    ) -> List[str]:
        """FE flush after an update, delete or compaction.

        The manifest must never reference private files superseded within
        this transaction (Section 3.2.3).  When reconciling the
        accumulated actions cancels none of them, the statement's staged
        blocks already say exactly that and are appended as
        :meth:`flush_insert` does.  Otherwise the reconciled actions are
        staged as one fresh block and the manifest is re-committed with
        only that block.  Returns orphaned private-file paths (left
        behind for garbage collection).
        """
        state = self.write_state(table_id)
        net, orphans = reconcile_actions(state.actions + new_actions)
        if not orphans and len(net) == len(state.actions) + len(new_actions):
            self.flush_insert(table_id, new_block_ids, new_actions)
            return orphans
        state.actions = net
        writer = BlockBlobClient(
            self._context.store, state.manifest_path, self._context.guids
        )
        block_id = with_retries(
            lambda: writer.write_block(encode_actions(net)),
            telemetry=self._context.telemetry,
            label="manifest_rewrite",
            clock=self._context.clock,
            seed=self._context.config.seed,
        )
        state.committed_block_ids = [block_id]
        crashpoint("fe.rewrite.before_manifest_flush")
        with_retries(
            lambda: self._context.store.commit_block_list(
                state.manifest_path, [block_id]
            ),
            telemetry=self._context.telemetry,
            label="manifest_rewrite",
            clock=self._context.clock,
            seed=self._context.config.seed,
        )
        return orphans

    # -- validation phase ----------------------------------------------------------

    def commit(self) -> Optional[int]:
        """Run the validation phase; returns the commit sequence id.

        Steps (Section 4.1.2): (1) WriteSets upserts for updated/deleted
        conflict units; (2–3) under the commit lock, stamp and insert the
        Manifests rows; (4) commit the root transaction.  On conflict the
        root transaction rolls back, reverting WriteSets and Manifests
        changes, and the error propagates to the caller.
        """
        self._require_active()
        tel = self._context.telemetry
        try:
            with tel.activate(self.span):
                with tel.span("txn.commit", "txn", txid=self.txid):
                    commit_seq = self._validate_and_commit()
        except SimulatedCrash:
            # A crashed process runs no abort path: no span bookkeeping, no
            # txn.aborted event — RecoveryManager inherits the mess.
            raise
        except BaseException as exc:
            # The loser of a first-committer-wins race (or any other
            # validation failure) keeps its span — marked failed, never
            # dropped — so conflict storms are visible in traces.
            self._end_span("error", **{"error.type": type(exc).__name__})
            tel.metrics.counter(
                "txn.commit_failures", error=type(exc).__name__
            ).inc()
            self._context.bus.publish(
                "txn.aborted", txid=self.txid, reason=type(exc).__name__
            )
            raise
        self._end_span("ok", commit_seq=commit_seq)
        tel.metrics.counter("txn.commits").inc()
        return commit_seq

    def _validate_and_commit(self) -> Optional[int]:
        """The validation-phase body of :meth:`commit` (Section 4.1.2)."""
        crashpoint("fe.commit.before_validation")
        dirty = [s for s in self._writes.values() if s.actions]
        granularity = self._context.config.txn.conflict_granularity
        for state in dirty:
            if not state.has_update_or_delete:
                continue
            if granularity == "file":
                for file_name in sorted(state.touched_files):
                    catalog.upsert_writeset(self.root, state.table_id, file_name)
            else:
                catalog.upsert_writeset(self.root, state.table_id)
        crashpoint("fe.commit.after_writesets")

        if dirty:
            committed_at = self._context.clock.now

            def stamp_manifests(sequence_id: int) -> None:
                for state in dirty:
                    catalog.insert_manifest(
                        self.root,
                        state.table_id,
                        state.manifest_name,
                        sequence_id,
                        self.root.txid,
                        committed_at,
                        state.manifest_path,
                    )

            self.root.set_pre_install_hook(stamp_manifests)

        commit_seq = self.root.commit()
        crashpoint("fe.commit.after_sqldb_commit")
        for state in dirty:
            self._context.bus.publish(
                "txn.committed",
                txid=self.txid,
                table_id=state.table_id,
                sequence_id=commit_seq,
                manifest_name=state.manifest_name,
                rows_inserted=state.rows_inserted,
                rows_deleted=state.rows_deleted,
            )
        self._context.bus.publish(
            "txn.finished",
            txid=self.txid,
            commit_seq=commit_seq,
            units=self._conflict_units(dirty, granularity),
            tables=[state.table_id for state in dirty],
        )
        return commit_seq

    @staticmethod
    def _conflict_units(
        dirty: List[TableWriteState], granularity: str
    ) -> List[str]:
        """The WriteSets conflict units this commit claimed (Section 4.1.2).

        Mirrors the upserts of the validation phase exactly: insert-only
        write states claim no unit (inserts never conflict), update/delete
        states claim their table or their touched files depending on the
        configured granularity.
        """
        units: List[str] = []
        for state in dirty:
            if not state.has_update_or_delete:
                continue
            if granularity == "file":
                units.extend(
                    f"file:{state.table_id}/{name}"
                    for name in sorted(state.touched_files)
                )
            else:
                units.append(f"table:{state.table_id}")
        return units

    def rollback(self) -> None:
        """Abort: discard catalog changes; private files become GC orphans."""
        if self.root.state is TxnState.ACTIVE:
            self.root.abort()
            self._end_span("rollback")
            self._context.telemetry.metrics.counter("txn.rollbacks").inc()
            self._context.bus.publish(
                "txn.aborted", txid=self.txid, reason="rollback"
            )

    # -- introspection ----------------------------------------------------------------

    def private_file_paths(self) -> List[str]:
        """Paths of files this transaction created (for tests and GC checks)."""
        out = []
        for state in self._writes.values():
            for action in state.actions:
                info = getattr(action, "file", None) or getattr(action, "dv", None)
                if action.kind in ("add_file", "add_dv") and info is not None:
                    out.append(info.path)
        return out
