"""Queryable system state: the ``sys.dm_*`` dynamic management views.

The paper's Fabric DW inherits SQL Server's operational model: operators
diagnose the transaction manager by *querying* system state, not by
reading logs.  :class:`Introspector` provides that surface — a catalog of
virtual views over live engine state, resolvable by the SQL runner so
``SELECT * FROM sys.dm_transactions`` works through any session.

Views (one provider each; schemas documented in ``docs/OBSERVABILITY.md``):

==========================  ==================================================
``sys.dm_transactions``     FE transaction lifecycle from bus events,
                            reconciled against the engine's active registry.
``sys.dm_storage_health``   Per-table GREEN/YELLOW/RED, file quality, live
                            deletion-vector counts.
``sys.dm_storage_integrity``  Every corrupt blob found by scrub passes:
                            problem, quarantine location, repair outcome.
``sys.dm_checkpoints``      The ``Checkpoints`` catalog rows, with names.
``sys.dm_store_operations`` Per-operation object-store request statistics.
``sys.dm_recovery_history`` One row per completed recovery pass.
``sys.dm_sessions``         The gateway's pooled per-tenant FE sessions.
``sys.dm_requests``         The gateway's request ledger: queued, running,
                            and recently finished requests.
``sys.dm_metrics``          Every registered instrument as a row.
``sys.dm_metrics_history``  The sampler's ring buffer, one row per series
                            per sample.
``sys.dm_exec_query_stats`` Query-store aggregates, one row per statement
                            fingerprint (executions, latency percentiles).
``sys.dm_exec_query_plans`` Distinct plans per fingerprint with literal-
                            stripped plan hashes and full plan text.
``sys.dm_exec_operator_stats``  Per-operator cardinality feedback: estimated
                            vs actual rows, simulated time, pruning.
``sys.dm_wait_stats``       Wait statistics, one row per wait kind: count,
                            total/max/p95 stalled seconds, attribution.
``sys.dm_exec_query_waits``  Waits per query fingerprint x wait kind,
                            joinable with ``sys.dm_exec_query_stats``.
``sys.dm_commit_lock``      The commit lock: current holder, acquisitions,
                            busy horizon, cumulative wait/hold seconds.
``sys.dm_table_stats``      Optimizer statistics per table: every versioned
                            ``TableStats`` row with its provenance.
``sys.dm_index_stats``      Secondary indexes: catalog facts plus lifetime
                            lookup and file-pruning counters.
==========================  ==================================================

Everything reads *live* state at query time; nothing here mutates the
engine or opens a user transaction (so querying ``dm_transactions`` never
shows the query itself).
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

import numpy as np

from repro.common.errors import PolarisError
from repro.engine.statistics import collect_stats
from repro.pagefile.schema import Schema
from repro.sqldb import system_tables as syscat
from repro.telemetry.timeseries import flatten_sample

if TYPE_CHECKING:
    from repro.common.clock import SimulatedClock
    from repro.common.events import EventBus
    from repro.engine.batch import Batch
    from repro.fe.context import ServiceContext
    from repro.sto.orchestrator import SystemTaskOrchestrator

#: Live Introspector instances in creation order (weakly held; the
#: benchmark harness prints ``--report`` summaries from these).
_INSTANCES: "List[weakref.ref[Introspector]]" = []


def instances() -> "List[Introspector]":
    """All live Introspector instances, oldest first."""
    out: List["Introspector"] = []
    for ref in _INSTANCES:
        instance = ref()
        if instance is not None:
            out.append(instance)
    return out


#: Finished-transaction records retained by the ledger (active records
#: are never evicted).
FINISHED_HISTORY_CAP = 1024


class TransactionLedger:
    """Accumulates transaction lifecycle facts from bus events.

    The FE publishes ``txn.begin`` / ``txn.committed`` / ``txn.finished``
    / ``txn.aborted`` (PR 2's SI-sanitizer feed); the ledger folds them
    into one record per transaction.  A crashed transaction publishes no
    terminal event — the view layer reconciles such records against the
    engine's active registry and reports them ``scavenged`` once recovery
    (or engine scavenging) has resolved them.
    """

    def __init__(self, bus: "EventBus", clock: "SimulatedClock") -> None:
        self._clock = clock
        self._records: Dict[int, Dict[str, Any]] = {}
        #: Finished txids, oldest finish first: what ``_finish`` trims.
        self._finished: Deque[int] = deque()
        self._recoveries: List[Dict[str, Any]] = []
        bus.subscribe("txn.begin", self._on_begin)
        bus.subscribe("txn.committed", self._on_table_commit)
        bus.subscribe("txn.finished", self._on_finished)
        bus.subscribe("txn.aborted", self._on_aborted)
        bus.subscribe("recovery.completed", self._on_recovery)

    # -- event handlers -------------------------------------------------------

    def _record(self, txid: int) -> Dict[str, Any]:
        record = self._records.get(txid)
        if record is None:
            record = self._records[txid] = {
                "txid": txid,
                "status": "active",
                "isolation": "",
                "begin_seq": 0,
                "begin_ts": 0.0,
                "commit_seq": 0,
                "units": 0,
                "tables": [],
                "rows_inserted": 0,
                "rows_deleted": 0,
                "reason": "",
            }
        return record

    def _on_begin(self, event) -> None:
        record = self._record(event.payload["txid"])
        record["isolation"] = event.payload["isolation"]
        record["begin_seq"] = event.payload["begin_seq"]
        record["begin_ts"] = event.payload["begin_ts"]

    def _on_table_commit(self, event) -> None:
        record = self._record(event.payload["txid"])
        table_id = event.payload["table_id"]
        if table_id not in record["tables"]:
            record["tables"].append(table_id)
        record["rows_inserted"] += event.payload["rows_inserted"]
        record["rows_deleted"] += event.payload["rows_deleted"]

    def _on_finished(self, event) -> None:
        record = self._record(event.payload["txid"])
        commit_seq = event.payload["commit_seq"]
        record["commit_seq"] = commit_seq if commit_seq is not None else 0
        record["units"] = len(event.payload["units"])
        for table_id in event.payload["tables"]:
            if table_id not in record["tables"]:
                record["tables"].append(table_id)
        self._finish(record, "committed")

    def _on_aborted(self, event) -> None:
        record = self._record(event.payload["txid"])
        record["reason"] = event.payload["reason"]
        self._finish(record, "aborted")

    def _on_recovery(self, event) -> None:
        entry = dict(event.payload)
        entry["recovery_id"] = len(self._recoveries) + 1
        entry["at"] = self._clock.now
        self._recoveries.append(entry)

    def _finish(self, record: Dict[str, Any], status: str) -> None:
        """Mark ``record`` finished and forget the oldest finished records
        past :data:`FINISHED_HISTORY_CAP`."""
        if record["status"] == "active":
            self._finished.append(record["txid"])
        record["status"] = status
        while len(self._finished) > FINISHED_HISTORY_CAP:
            del self._records[self._finished.popleft()]

    # -- reading --------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """One record per known transaction, ordered by txid."""
        return [self._records[txid] for txid in sorted(self._records)]

    def recoveries(self) -> List[Dict[str, Any]]:
        """One record per completed recovery pass, oldest first."""
        return list(self._recoveries)


class Introspector:
    """Resolves ``sys.dm_*`` view names into schemas and row batches."""

    #: View name -> (schema, provider method name).  The SQL runner and
    #: the docs both derive the catalog from this single table.
    VIEWS: Dict[str, Any] = {
        "sys.dm_transactions": (
            Schema.of(
                ("txid", "int64"),
                ("status", "string"),
                ("isolation", "string"),
                ("begin_seq", "int64"),
                ("begin_ts", "float64"),
                ("commit_seq", "int64"),
                ("units", "int64"),
                ("tables", "string"),
                ("rows_inserted", "int64"),
                ("rows_deleted", "int64"),
                ("reason", "string"),
            ),
            "_dm_transactions",
        ),
        "sys.dm_storage_health": (
            Schema.of(
                ("table_id", "int64"),
                ("table_name", "string"),
                ("state", "string"),
                ("file_count", "int64"),
                ("total_rows", "int64"),
                ("deleted_rows", "int64"),
                ("low_quality_files", "int64"),
                ("low_quality_fraction", "float64"),
                ("dv_count", "int64"),
                ("pending_compaction", "bool"),
            ),
            "_dm_storage_health",
        ),
        "sys.dm_storage_integrity": (
            Schema.of(
                ("table_id", "int64"),
                ("table_name", "string"),
                ("path", "string"),
                ("kind", "string"),
                ("problem", "string"),
                ("action", "string"),
                ("quarantine_path", "string"),
                ("at", "float64"),
            ),
            "_dm_storage_integrity",
        ),
        "sys.dm_checkpoints": (
            Schema.of(
                ("table_id", "int64"),
                ("table_name", "string"),
                ("sequence_id", "int64"),
                ("path", "string"),
                ("created_at", "float64"),
            ),
            "_dm_checkpoints",
        ),
        "sys.dm_store_operations": (
            Schema.of(
                ("operation", "string"),
                ("requests", "int64"),
                ("faults", "int64"),
                ("latency_count", "int64"),
                ("latency_mean_s", "float64"),
                ("latency_p50_s", "float64"),
                ("latency_p95_s", "float64"),
                ("latency_p99_s", "float64"),
                ("latency_max_s", "float64"),
            ),
            "_dm_store_operations",
        ),
        "sys.dm_recovery_history": (
            Schema.of(
                ("recovery_id", "int64"),
                ("at", "float64"),
                ("in_doubt_committed", "int64"),
                ("in_doubt_aborted", "int64"),
                ("staged_blocks_discarded", "int64"),
                ("publishes_completed", "int64"),
            ),
            "_dm_recovery_history",
        ),
        "sys.dm_sessions": (
            Schema.of(
                ("session_id", "int64"),
                ("tenant", "string"),
                ("state", "string"),
                ("opened_at", "float64"),
                ("last_active_at", "float64"),
                ("requests", "int64"),
            ),
            "_dm_sessions",
        ),
        "sys.dm_requests": (
            Schema.of(
                ("request_id", "int64"),
                ("session_id", "int64"),
                ("tenant", "string"),
                ("workload_class", "string"),
                ("priority", "int64"),
                ("status", "string"),
                ("submitted_at", "float64"),
                ("started_at", "float64"),
                ("finished_at", "float64"),
                ("queue_wait_s", "float64"),
                ("execute_s", "float64"),
                ("retry_after_s", "float64"),
                ("error", "string"),
            ),
            "_dm_requests",
        ),
        "sys.dm_metrics": (
            Schema.of(
                ("name", "string"),
                ("labels", "string"),
                ("kind", "string"),
                ("value", "float64"),
                ("count", "int64"),
                ("sum", "float64"),
                ("min", "float64"),
                ("mean", "float64"),
                ("max", "float64"),
                ("p50", "float64"),
                ("p95", "float64"),
                ("p99", "float64"),
            ),
            "_dm_metrics",
        ),
        "sys.dm_metrics_history": (
            Schema.of(
                ("sample_id", "int64"),
                ("at", "float64"),
                ("metric", "string"),
                ("value", "float64"),
            ),
            "_dm_metrics_history",
        ),
        "sys.dm_exec_query_stats": (
            Schema.of(
                ("query_hash", "string"),
                ("statement_kind", "string"),
                ("query_text", "string"),
                ("executions", "int64"),
                ("errors", "int64"),
                ("total_rows", "int64"),
                ("total_bytes_read", "int64"),
                ("total_sim_s", "float64"),
                ("mean_sim_s", "float64"),
                ("p50_s", "float64"),
                ("p95_s", "float64"),
                ("p99_s", "float64"),
                ("recent_p95_s", "float64"),
                ("baseline_p95_s", "float64"),
                ("regressions", "int64"),
                ("plan_count", "int64"),
                ("tenants", "string"),
                ("workload_classes", "string"),
                ("first_seen", "float64"),
                ("last_seen", "float64"),
            ),
            "_dm_exec_query_stats",
        ),
        "sys.dm_exec_query_plans": (
            Schema.of(
                ("query_hash", "string"),
                ("plan_hash", "string"),
                ("executions", "int64"),
                ("first_seen", "float64"),
                ("last_seen", "float64"),
                ("plan_text", "string"),
            ),
            "_dm_exec_query_plans",
        ),
        "sys.dm_exec_operator_stats": (
            Schema.of(
                ("query_hash", "string"),
                ("operator_id", "int64"),
                ("operator", "string"),
                ("executions", "int64"),
                ("est_rows", "float64"),
                ("actual_rows", "float64"),
                ("misestimate", "float64"),
                ("sim_time_s", "float64"),
                ("files", "int64"),
                ("files_pruned", "int64"),
                ("row_groups", "int64"),
                ("row_groups_pruned", "int64"),
            ),
            "_dm_exec_operator_stats",
        ),
        "sys.dm_wait_stats": (
            Schema.of(
                ("wait_kind", "string"),
                ("waits", "int64"),
                ("total_wait_s", "float64"),
                ("mean_wait_s", "float64"),
                ("max_wait_s", "float64"),
                ("p95_wait_s", "float64"),
                ("tenants", "string"),
                ("workload_classes", "string"),
            ),
            "_dm_wait_stats",
        ),
        "sys.dm_exec_query_waits": (
            Schema.of(
                ("query_hash", "string"),
                ("wait_kind", "string"),
                ("waits", "int64"),
                ("total_wait_s", "float64"),
                ("max_wait_s", "float64"),
            ),
            "_dm_exec_query_waits",
        ),
        "sys.dm_commit_lock": (
            Schema.of(
                ("is_held", "bool"),
                ("holder_txid", "int64"),
                ("acquisitions", "int64"),
                ("busy_until", "float64"),
                ("total_wait_s", "float64"),
                ("total_hold_s", "float64"),
            ),
            "_dm_commit_lock",
        ),
        "sys.dm_table_stats": (
            Schema.of(
                ("table_id", "int64"),
                ("table_name", "string"),
                ("sequence_id", "int64"),
                ("row_count", "int64"),
                ("column_count", "int64"),
                ("analyzed_at", "float64"),
                ("source", "string"),
                ("feedback_factor", "float64"),
            ),
            "_dm_table_stats",
        ),
        "sys.dm_index_stats": (
            Schema.of(
                ("table_id", "int64"),
                ("table_name", "string"),
                ("index_name", "string"),
                ("column_name", "string"),
                ("sequence_id", "int64"),
                ("entries", "int64"),
                ("covered_files", "int64"),
                ("size_bytes", "int64"),
                ("built_at", "float64"),
                ("lookups", "int64"),
                ("files_pruned", "int64"),
            ),
            "_dm_index_stats",
        ),
    }

    def __init__(self, context: "ServiceContext") -> None:
        self._context = context
        self._sto: "Optional[SystemTaskOrchestrator]" = None
        self.ledger = TransactionLedger(context.bus, context.clock)
        _INSTANCES.append(weakref.ref(self))

    def bind_sto(self, sto: "SystemTaskOrchestrator") -> None:
        """Attach the orchestrator (pending compactions feed RED state)."""
        self._sto = sto

    # -- catalog --------------------------------------------------------------

    @classmethod
    def view_names(cls) -> List[str]:
        """Every queryable view name, sorted."""
        return sorted(cls.VIEWS)

    @classmethod
    def has_view(cls, name: str) -> bool:
        """Whether ``name`` (case-insensitive) is a system view."""
        return name.lower() in cls.VIEWS

    @classmethod
    def schema(cls, name: str) -> Schema:
        """The schema of one view; raises ``KeyError`` on unknown names."""
        return cls.VIEWS[name.lower()][0]

    # -- materialization ------------------------------------------------------

    def rows(self, name: str) -> List[Dict[str, Any]]:
        """The view's current rows as dicts (live state, read at call time)."""
        schema, provider = self.VIEWS[name.lower()]
        del schema
        return getattr(self, provider)()

    def batch(self, name: str) -> "Batch":
        """The view's current rows as a columnar batch in schema order."""
        schema = self.schema(name)
        rows = self.rows(name)
        batch: Dict[str, np.ndarray] = {}
        for field in schema.fields:
            values = [row[field.name] for row in rows]
            if values:
                batch[field.name] = np.array(values, dtype=field.numpy_dtype)
            else:
                batch[field.name] = np.empty(0, dtype=field.numpy_dtype)
        return batch

    # -- providers ------------------------------------------------------------

    def _dm_transactions(self) -> List[Dict[str, Any]]:
        active_ids = {
            txn.txid for txn in self._context.sqldb.active_transactions
        }
        rows = []
        for record in self.ledger.records():
            status = record["status"]
            if status == "active" and record["txid"] not in active_ids:
                # The FE never published a terminal event (a simulated
                # crash skips the abort path); the engine has since
                # resolved the transaction, so it must not show active.
                status = "scavenged"
            row = dict(record)
            row["status"] = status
            row["tables"] = ",".join(str(t) for t in record["tables"])
            rows.append(row)
        return rows

    def _dm_storage_health(self) -> List[Dict[str, Any]]:
        context = self._context
        txn = context.sqldb.begin()
        try:
            tables = syscat.list_tables(txn)
        finally:
            txn.abort()
        pending = (
            self._sto.pending_compactions if self._sto is not None else {}
        )
        health = self._sto.health if self._sto is not None else None
        trigger = context.config.sto.compaction_trigger_fraction
        rows = []
        for table in sorted(tables, key=lambda t: t["table_id"]):
            table_id = table["table_id"]
            compromised = health is not None and health.integrity_compromised(
                table_id
            )
            try:
                snapshot = context.cache.get(
                    table_id, context.sqldb.last_commit_seq
                )
            except PolarisError:
                # Unrepairable metadata loss: the snapshot cannot even be
                # reconstructed, so surface the table RED with no stats
                # rather than failing the whole view.
                rows.append(
                    {
                        "table_id": table_id,
                        "table_name": table["name"],
                        "state": "RED",
                        "file_count": 0,
                        "total_rows": 0,
                        "deleted_rows": 0,
                        "low_quality_files": 0,
                        "low_quality_fraction": 0.0,
                        "dv_count": 0,
                        "pending_compaction": False,
                    }
                )
                continue
            stats = collect_stats(table_id, snapshot, context.config.sto)
            pending_compaction = table_id in pending
            if (
                compromised
                or pending_compaction
                or (stats.file_count and stats.low_quality_fraction >= trigger)
            ):
                state = "RED"
            elif stats.low_quality_files:
                state = "YELLOW"
            else:
                state = "GREEN"
            rows.append(
                {
                    "table_id": table_id,
                    "table_name": table["name"],
                    "state": state,
                    "file_count": stats.file_count,
                    "total_rows": stats.total_rows,
                    "deleted_rows": stats.deleted_rows,
                    "low_quality_files": stats.low_quality_files,
                    "low_quality_fraction": stats.low_quality_fraction,
                    "dv_count": len(snapshot.dvs),
                    "pending_compaction": pending_compaction,
                }
            )
        return rows

    def _dm_storage_integrity(self) -> List[Dict[str, Any]]:
        if self._sto is None:
            return []
        rows = []
        for report in self._sto.scrub_reports:
            for record in report.records:
                rows.append(
                    {
                        "table_id": record.table_id,
                        "table_name": record.table_name,
                        "path": record.path,
                        "kind": record.kind,
                        "problem": record.problem,
                        "action": record.action,
                        "quarantine_path": record.quarantine_path,
                        "at": record.at,
                    }
                )
        return rows

    def _dm_checkpoints(self) -> List[Dict[str, Any]]:
        txn = self._context.sqldb.begin()
        try:
            rows = []
            for table in sorted(
                syscat.list_tables(txn), key=lambda t: t["table_id"]
            ):
                for row in syscat.checkpoints_for_table(
                    txn, table["table_id"]
                ):
                    rows.append(
                        {
                            "table_id": table["table_id"],
                            "table_name": table["name"],
                            "sequence_id": row["sequence_id"],
                            "path": row["path"],
                            "created_at": float(row["created_at"]),
                        }
                    )
            return rows
        finally:
            txn.abort()

    def _dm_store_operations(self) -> List[Dict[str, Any]]:
        per_op: Dict[str, Dict[str, Any]] = {}

        def slot(operation: str) -> Dict[str, Any]:
            return per_op.setdefault(
                operation,
                {
                    "operation": operation,
                    "requests": 0,
                    "faults": 0,
                    "latency_count": 0,
                    "latency_mean_s": 0.0,
                    "latency_p50_s": 0.0,
                    "latency_p95_s": 0.0,
                    "latency_p99_s": 0.0,
                    "latency_max_s": 0.0,
                },
            )

        for kind, name, labels, instrument in (
            self._context.telemetry.metrics.instruments()
        ):
            del kind
            if name == "storage.requests":
                slot(labels.get("op", "?"))["requests"] = int(instrument.value)
            elif name == "storage.faults_injected":
                slot(labels.get("op", "?"))["faults"] = int(instrument.value)
            elif name == "storage.request_latency_s":
                row = slot(labels.get("op", "?"))
                summary = instrument.summary()
                row["latency_count"] = int(summary["count"])
                row["latency_mean_s"] = summary["mean"]
                row["latency_p50_s"] = summary["p50"]
                row["latency_p95_s"] = summary["p95"]
                row["latency_p99_s"] = summary["p99"]
                row["latency_max_s"] = summary["max"]
        return [per_op[operation] for operation in sorted(per_op)]

    def _dm_recovery_history(self) -> List[Dict[str, Any]]:
        return [
            {
                "recovery_id": entry["recovery_id"],
                "at": entry["at"],
                "in_doubt_committed": entry["in_doubt_committed"],
                "in_doubt_aborted": entry["in_doubt_aborted"],
                "staged_blocks_discarded": entry["staged_blocks_discarded"],
                "publishes_completed": entry["publishes_completed"],
            }
            for entry in self.ledger.recoveries()
        ]

    def _dm_sessions(self) -> List[Dict[str, Any]]:
        gateway = self._context.gateway
        if gateway is None:
            return []
        return gateway.session_rows()

    def _dm_requests(self) -> List[Dict[str, Any]]:
        gateway = self._context.gateway
        if gateway is None:
            return []
        return gateway.request_rows()

    def _dm_metrics(self) -> List[Dict[str, Any]]:
        rows = []
        for kind, name, labels, instrument in (
            self._context.telemetry.metrics.instruments()
        ):
            row = {
                "name": name,
                "labels": ",".join(f"{k}={v}" for k, v in sorted(labels.items())),
                "kind": kind,
                "value": 0.0,
                "count": 0,
                "sum": 0.0,
                "min": 0.0,
                "mean": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
            if kind == "histogram":
                summary = instrument.summary()
                # ``value`` mirrors ``sum`` so every kind is scannable
                # through one column.
                row["value"] = summary["sum"]
                row["count"] = int(summary["count"])
                for stat in ("sum", "min", "mean", "max", "p50", "p95", "p99"):
                    row[stat] = summary[stat]
            else:
                row["value"] = instrument.value
            rows.append(row)
        return rows

    def _dm_metrics_history(self) -> List[Dict[str, Any]]:
        sampler = self._context.telemetry.sampler
        if sampler is None:
            return []
        rows = []
        for sample in sampler.samples:
            flat = flatten_sample(sample.values)
            for metric in sorted(flat):
                rows.append(
                    {
                        "sample_id": sample.sample_id,
                        "at": sample.at,
                        "metric": metric,
                        "value": flat[metric],
                    }
                )
        return rows

    def _dm_exec_query_stats(self) -> List[Dict[str, Any]]:
        store = self._context.telemetry.querystore
        if store is None:
            return []
        return store.query_stats_rows()

    def _dm_exec_query_plans(self) -> List[Dict[str, Any]]:
        store = self._context.telemetry.querystore
        if store is None:
            return []
        return store.query_plans_rows()

    def _dm_exec_operator_stats(self) -> List[Dict[str, Any]]:
        store = self._context.telemetry.querystore
        if store is None:
            return []
        return store.operator_stats_rows()

    def _dm_wait_stats(self) -> List[Dict[str, Any]]:
        waits = self._context.telemetry.waits
        if waits is None:
            return []
        return waits.wait_stats_rows()

    def _dm_exec_query_waits(self) -> List[Dict[str, Any]]:
        waits = self._context.telemetry.waits
        if waits is None:
            return []
        return waits.query_waits_rows()

    def _dm_commit_lock(self) -> List[Dict[str, Any]]:
        # One row, always available: the lock itself keeps local
        # aggregates, so holder/hold accounting needs neither metrics nor
        # wait stats enabled.
        lock = self._context.sqldb.commit_lock
        holder = lock.holder_txid
        return [
            {
                "is_held": lock.is_held,
                "holder_txid": holder if holder is not None else 0,
                "acquisitions": lock.acquisitions,
                "busy_until": lock.busy_until,
                "total_wait_s": lock.total_wait_s,
                "total_hold_s": lock.total_hold_s,
            }
        ]

    def _dm_table_stats(self) -> List[Dict[str, Any]]:
        txn = self._context.sqldb.begin()
        try:
            rows = syscat.all_table_stats(txn)
        finally:
            txn.abort()
        return [
            {
                "table_id": row["table_id"],
                "table_name": row["table_name"],
                "sequence_id": row["sequence_id"],
                "row_count": int(row["row_count"]),
                "column_count": len(row["columns"]),
                "analyzed_at": float(row["analyzed_at"]),
                "source": row["source"],
                "feedback_factor": float(row["feedback_factor"]),
            }
            for row in rows
        ]

    def _dm_index_stats(self) -> List[Dict[str, Any]]:
        txn = self._context.sqldb.begin()
        try:
            names = {
                t["table_id"]: t["name"] for t in syscat.list_tables(txn)
            }
            index_rows = syscat.all_indexes(txn)
        finally:
            txn.abort()
        optimizer = self._context.optimizer
        rows = []
        for row in index_rows:
            usage = (
                optimizer.index_usage(row["table_id"], row["index_name"])
                if optimizer is not None
                else {"lookups": 0, "files_pruned": 0}
            )
            rows.append(
                {
                    "table_id": row["table_id"],
                    "table_name": names.get(row["table_id"], ""),
                    "index_name": row["index_name"],
                    "column_name": row["column"],
                    "sequence_id": row["sequence_id"],
                    "entries": int(row["entries"]),
                    "covered_files": len(row["covered_files"]),
                    "size_bytes": int(row["size_bytes"]),
                    "built_at": float(row["built_at"]),
                    "lookups": usage["lookups"],
                    "files_pruned": usage["files_pruned"],
                }
            )
        return rows

    # -- end-of-run report ----------------------------------------------------

    def report(self) -> str:
        """A human-readable end-of-run health report built from the DMVs."""
        lines = [f"=== observability report ({self._context.database}) ==="]
        statuses: Dict[str, int] = {}
        for row in self._dm_transactions():
            statuses[row["status"]] = statuses.get(row["status"], 0) + 1
        lines.append(
            "transactions: "
            + (
                ", ".join(
                    f"{count} {status}"
                    for status, count in sorted(statuses.items())
                )
                or "none"
            )
        )
        states: Dict[str, int] = {}
        for row in self._dm_storage_health():
            states[row["state"]] = states.get(row["state"], 0) + 1
        lines.append(
            "storage health: "
            + (
                ", ".join(
                    f"{count} {state}" for state, count in sorted(states.items())
                )
                or "no tables"
            )
        )
        ops = self._dm_store_operations()
        requests = sum(row["requests"] for row in ops)
        metrics = self._context.telemetry.metrics
        lines.append(
            f"object store: {requests} requests, "
            f"{int(metrics.value('storage.bytes_read'))} B read, "
            f"{int(metrics.value('storage.bytes_written'))} B written"
        )
        chunks = self._context.chunk_cache.stats
        lines.append(
            f"chunk cache: {chunks.hits} hits, {chunks.misses} misses, "
            f"{chunks.evictions} evictions, {chunks.resident_bytes} B resident"
        )
        lines.append(f"checkpoints: {len(self._dm_checkpoints())}")
        lines.append(f"recovery runs: {len(self._dm_recovery_history())}")
        alerts = sum(
            instrument.value
            for kind, name, labels, instrument in metrics.instruments()
            if name == "watchdog.alerts"
        )
        lines.append(f"watchdog alerts: {int(alerts)}")
        return "\n".join(lines)
