"""The System Task Orchestrator: triggers and background operations.

The STO "gathers input from multiple sources and executes actions based on
specific triggers" (Section 5).  Inputs here are bus events:

* ``txn.committed`` — feeds the checkpoint trigger (more than N manifests
  since the last checkpoint → checkpoint now), the Delta publisher, the
  auto-ANALYZE trigger (ingested-row churn since the last statistics
  collection crosses :data:`AUTO_ANALYZE_ROWS`), and
  secondary-index maintenance (indexes lagging the table's snapshot are
  rebuilt so index pruning keeps covering fresh data).
* ``stats.table`` — feeds the health monitor; a table crossing the
  low-quality threshold schedules a compaction, which runs after a short
  delay (the paper's "within a few minutes") on a subsequent event tick.
  Compactions rewrite data files, so a committed compaction also
  refreshes the table's indexes.

Everything can also be driven manually (``run_compaction``, ``run_gc``,
``run_checkpoint``) — tests and ablation benches use that mode with
``enabled=False``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import WriteConflictError
from repro.common.events import Event
from repro.engine.statistics import collect_stats
from repro.fe.context import ServiceContext
from repro.optimizer import manager as optimizer_manager
from repro.sqldb import system_tables as catalog
from repro.sto.checkpointer import (
    CheckpointResult,
    manifests_since_checkpoint,
    run_checkpoint,
)
from repro.sto.compaction import CompactionResult, run_compaction
from repro.sto.gc import GcReport, run_garbage_collection
from repro.sto.health import StorageHealthMonitor
from repro.sto.publisher import DeltaPublisher
from repro.sto.publisher_iceberg import IcebergPublisher
from repro.sto.scrubber import ScrubReport, run_scrub

#: Compact a table once this fraction of its files is low quality.
COMPACTION_TRIGGER_FRACTION = 0.10
#: How often the periodic integrity scrub audits every live blob.
SCRUB_INTERVAL_S = 12 * 3600.0
#: Auto-ANALYZE: re-collect a table's statistics once this many rows were
#: ingested or deleted since the last ANALYZE.  0 disables the job.
AUTO_ANALYZE_ROWS = 0


class SystemTaskOrchestrator:
    """Event-driven background optimization service."""

    def __init__(self, context: ServiceContext, enabled: bool = True) -> None:
        self._context = context
        self.enabled = enabled
        self.health = StorageHealthMonitor()
        self.publisher = DeltaPublisher(context)
        #: table_id -> simulated time the pending compaction becomes due.
        self._pending_compactions: Dict[int, float] = {}
        #: table_id -> row churn since the last (auto or manual) ANALYZE.
        self._rows_since_analyze: Dict[int, int] = {}
        #: Auto-ANALYZE runs completed, per table (test/DMV visibility).
        self.auto_analyzes: Dict[int, int] = {}
        #: Index rebuilds completed by maintenance, per table.
        self.index_refreshes: Dict[int, int] = {}
        self._busy = False
        self.compactions: List[CompactionResult] = []
        self.checkpoints: List[CheckpointResult] = []
        self.gc_reports: List[GcReport] = []
        self.scrub_reports: List[ScrubReport] = []
        #: Publish committed manifests automatically.
        self.auto_publish = False
        #: Formats to publish in: Delta today (as in the paper), Iceberg as
        #: the planned extension ("add different formats in the future").
        self.publish_formats = {"delta"}
        self.iceberg = IcebergPublisher(context)
        context.bus.subscribe("txn.committed", self._on_commit)
        context.bus.subscribe("stats.table", self._on_stats)

    def rebind(self, context: ServiceContext) -> None:
        """Reset trigger state after a restore replaced the catalog."""
        self._context = context
        self._pending_compactions.clear()
        self._rows_since_analyze.clear()

    # -- event handlers -----------------------------------------------------------

    def _on_commit(self, event: Event) -> None:
        # Publishing is not an optimization: it runs on every commit, even
        # while another STO action is in flight (it never commits anything
        # itself, so it cannot recurse).
        if self.auto_publish:
            self._publish(event)
        if not self.enabled or self._busy:
            return
        table_id = event.payload["table_id"]
        self._busy = True
        try:
            threshold = self._context.config.sto.checkpoint_manifest_threshold
            backlog = manifests_since_checkpoint(self._context, table_id)
            if backlog >= threshold:
                self._context.telemetry.add_event(
                    "sto.trigger.checkpoint",
                    table_id=table_id,
                    manifests_since_checkpoint=backlog,
                )
                result = self._checkpoint_span(table_id, trigger="commit")
                if result is not None:
                    self.checkpoints.append(result)
            self._maybe_auto_analyze(table_id, event.payload)
            self._maintain_indexes(table_id)
            self._drain_compactions()
        finally:
            self._busy = False

    def _maybe_auto_analyze(self, table_id: int, payload: Dict) -> None:
        """Re-ANALYZE a table once its row churn crosses the threshold.

        Churn is inserted plus deleted rows accumulated across commits;
        :data:`AUTO_ANALYZE_ROWS` of zero disables the trigger entirely.
        The collection runs in its own transaction, exactly like a user
        ``ANALYZE`` — a conflict with a concurrent committer just skips
        this round (the churn counter keeps the trigger armed for the next
        commit).
        """
        optimizer = self._context.optimizer
        if AUTO_ANALYZE_ROWS <= 0 or optimizer is None:
            return
        churn = int(payload.get("rows_inserted", 0)) + int(
            payload.get("rows_deleted", 0)
        )
        total = self._rows_since_analyze.get(table_id, 0) + churn
        if total < AUTO_ANALYZE_ROWS:
            self._rows_since_analyze[table_id] = total
            return
        txn = self._context.sqldb.begin()
        try:
            table = catalog.get_table(txn, table_id)
        finally:
            txn.abort()
        if table is None:
            return
        tel = self._context.telemetry
        tel.add_event(
            "sto.trigger.analyze", table_id=table_id, rows_since_analyze=total
        )
        from repro.fe.transaction import PolarisTransaction
        from repro.optimizer.statistics import SOURCE_AUTO

        analyze_txn = PolarisTransaction(self._context)
        with tel.span("sto.analyze", "sto", table_id=table_id):
            try:
                optimizer.analyze_table(
                    analyze_txn, table["name"], source=SOURCE_AUTO
                )
                analyze_txn.commit()
            except WriteConflictError:
                analyze_txn.rollback()
                return
            except BaseException:
                if analyze_txn.is_active:
                    analyze_txn.rollback()
                raise
        self._rows_since_analyze[table_id] = 0
        self.auto_analyzes[table_id] = self.auto_analyzes.get(table_id, 0) + 1

    def _maintain_indexes(self, table_id: int) -> None:
        """Rebuild indexes of ``table_id`` that lag its latest snapshot.

        Runs in its own transaction after the triggering commit; a
        conflict skips the round (the indexes stay stale but safe —
        uncovered files are always scanned — and the next commit or
        compaction retries).
        """
        optimizer = self._context.optimizer
        if optimizer is None or not optimizer_manager.ENABLED:
            return
        # Cheap existence probe first: a plain catalog read, so tables
        # without indexes (the common case) cost no FE transaction.
        probe = self._context.sqldb.begin()
        try:
            has_indexes = bool(catalog.indexes_for_table(probe, table_id))
        finally:
            probe.abort()
        if not has_indexes:
            return
        from repro.fe.transaction import PolarisTransaction

        txn = PolarisTransaction(self._context)
        tel = self._context.telemetry
        with tel.span("sto.index_refresh", "sto", table_id=table_id):
            try:
                rebuilt = optimizer.refresh_indexes(txn, table_id)
                txn.commit()
            except WriteConflictError:
                txn.rollback()
                return
            except BaseException:
                if txn.is_active:
                    txn.rollback()
                raise
        if rebuilt:
            self.index_refreshes[table_id] = (
                self.index_refreshes.get(table_id, 0) + rebuilt
            )

    def _observe_health(self, stats) -> None:
        """Record one stats observation and refresh the health gauge."""
        self.health.observe(stats, self._context.clock.now)
        self._context.telemetry.metrics.gauge("sto.unhealthy_tables").set(
            self.health.unhealthy_count
        )

    def _on_stats(self, event: Event) -> None:
        stats = event.payload["stats"]
        self._observe_health(stats)
        if not self.enabled or self._busy:
            return
        if (
            not stats.healthy
            and stats.low_quality_fraction >= COMPACTION_TRIGGER_FRACTION
            and stats.table_id not in self._pending_compactions
        ):
            due = self._context.clock.now + self._context.config.sto.poll_interval_s
            self._pending_compactions[stats.table_id] = due
            self._context.telemetry.add_event(
                "sto.trigger.compaction",
                table_id=stats.table_id,
                low_quality_fraction=stats.low_quality_fraction,
                due=due,
            )
        self._busy = True
        try:
            self._drain_compactions()
        finally:
            self._busy = False

    def _publish(self, event: Event) -> None:
        table_id = event.payload["table_id"]
        txn = self._context.sqldb.begin()
        try:
            table = catalog.get_table(txn, table_id)
            last = catalog.latest_manifest(txn, table_id)
        finally:
            txn.abort()
        if table is None or last is None:
            return
        tel = self._context.telemetry
        with tel.span(
            "sto.publish",
            "sto",
            table_id=table_id,
            sequence_id=last["sequence_id"],
            formats=",".join(sorted(self.publish_formats)),
        ):
            if "delta" in self.publish_formats:
                self.publisher.publish_commit(
                    table["name"], table_id, last["manifest_path"], last["sequence_id"]
                )
            if "iceberg" in self.publish_formats:
                self.iceberg.publish_commit(
                    table["name"], table_id, last["manifest_path"], last["sequence_id"]
                )
        tel.metrics.counter("sto.publishes").inc()

    # -- manual / periodic operations -------------------------------------------------

    def _drain_compactions(self) -> None:
        now = self._context.clock.now
        tel = self._context.telemetry
        due = [tid for tid, when in self._pending_compactions.items() if when <= now]
        for table_id in sorted(due):
            # Lag between the trigger's due time and this tick: time the
            # table stayed unhealthy waiting for the scheduler.
            tel.record_wait(
                "sto_schedule", now - self._pending_compactions[table_id]
            )
            del self._pending_compactions[table_id]
            self.run_compaction(table_id, trigger="health")

    def tick(self) -> None:
        """Run any due pending work (benchmark drivers call this)."""
        if self._busy:
            return
        self._busy = True
        try:
            self._drain_compactions()
        finally:
            self._busy = False

    def schedule_periodic_gc(self, interval_s: Optional[float] = None) -> None:
        """Run garbage collection every ``interval_s`` of simulated time.

        Uses the clock's watcher mechanism: each firing re-arms the next
        one, so GC keeps up with the simulation without a real event loop.
        """
        interval = (
            interval_s
            if interval_s is not None
            else self._context.config.sto.retention_period_s / 2
        )
        clock = self._context.clock

        def fire(now: float) -> None:
            if self.enabled and not self._busy:
                self.run_gc()
            clock.call_at(now + interval, fire)

        clock.call_at(clock.now + interval, fire)

    def run_compaction(
        self, table_id: int, trigger: str = "manual"
    ) -> CompactionResult:
        """Compact one table now; records the result and fresh health stats."""
        tel = self._context.telemetry
        with tel.span("sto.compaction", "sto", table_id=table_id, trigger=trigger):
            result = run_compaction(self._context, table_id)
        outcome = "committed" if result.committed else "aborted"
        tel.metrics.counter("sto.compactions", outcome=outcome).inc()
        tel.metrics.counter("sto.files_rewritten").inc(result.files_rewritten)
        self.compactions.append(result)
        if result.committed and result.files_rewritten:
            snapshot = self._context.cache.get(
                table_id, self._context.sqldb.last_commit_seq
            )
            stats = collect_stats(table_id, snapshot, self._context.config.sto)
            self._observe_health(stats)
            # The rewrite replaced data files, so covered-file pruning
            # would otherwise go dark until the next commit.
            self._maintain_indexes(table_id)
        return result

    def run_checkpoint(self, table_id: int) -> Optional[CheckpointResult]:
        """Checkpoint one table now."""
        result = self._checkpoint_span(table_id, trigger="manual")
        if result is not None:
            self.checkpoints.append(result)
        return result

    def _checkpoint_span(
        self, table_id: int, trigger: str
    ) -> Optional[CheckpointResult]:
        tel = self._context.telemetry
        with tel.span("sto.checkpoint", "sto", table_id=table_id, trigger=trigger):
            result = run_checkpoint(self._context, table_id)
        if result is not None:
            tel.metrics.counter("sto.checkpoints").inc()
            tel.metrics.counter("sto.manifests_collapsed").inc(
                result.manifests_collapsed
            )
        return result

    def run_gc(self) -> GcReport:
        """Garbage-collect the deployment now."""
        tel = self._context.telemetry
        with tel.span("sto.gc", "sto"):
            report = run_garbage_collection(self._context)
        tel.metrics.counter("sto.gc_runs").inc()
        tel.metrics.counter("sto.gc_files_deleted").inc(report.deleted_total)
        self.gc_reports.append(report)
        return report

    def run_scrub(self) -> ScrubReport:
        """Audit the deployment's blob integrity now (quarantine + repair)."""
        tel = self._context.telemetry
        with tel.span("sto.scrub", "sto"):
            report = run_scrub(self._context, self.health)
        metrics = tel.metrics
        metrics.counter("storage.integrity_blobs_verified").inc(
            report.blobs_verified
        )
        metrics.counter("storage.integrity_quarantined").inc(report.quarantined)
        metrics.counter("storage.integrity_repaired").inc(report.repaired)
        metrics.counter("storage.integrity_unrepairable").inc(report.unrepairable)
        self.scrub_reports.append(report)
        return report

    def schedule_periodic_scrub(self, interval_s: Optional[float] = None) -> None:
        """Run an integrity scrub every ``interval_s`` of simulated time.

        Same re-arming watcher mechanism as :meth:`schedule_periodic_gc`;
        the default cadence is :data:`SCRUB_INTERVAL_S`.
        """
        interval = interval_s if interval_s is not None else SCRUB_INTERVAL_S
        clock = self._context.clock

        def fire(now: float) -> None:
            if self.enabled and not self._busy:
                self.run_scrub()
            clock.call_at(now + interval, fire)

        clock.call_at(clock.now + interval, fire)

    @property
    def pending_compactions(self) -> Dict[int, float]:
        """Tables queued for compaction and their due times."""
        return dict(self._pending_compactions)
