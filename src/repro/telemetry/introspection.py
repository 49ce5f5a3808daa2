"""Queryable system state: the ``sys.dm_*`` dynamic management views.

The paper's Fabric DW inherits SQL Server's operational model: operators
diagnose the transaction manager by *querying* system state, not by
reading logs.  :class:`Introspector` provides that surface — a catalog of
virtual views over live engine state, resolvable by the SQL runner so
``SELECT * FROM sys.dm_transactions`` works through any session.

Views (each declared once in :attr:`Introspector.VIEWS`; schemas documented
in ``docs/OBSERVABILITY.md``):

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

import json
import operator
from collections import Counter, deque
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.common.errors import PolarisError
from repro.engine.statistics import TableStats
from repro.pagefile.schema import Schema
from repro.sqldb import system_tables as syscat
from repro.telemetry.timeseries import flatten_sample

if TYPE_CHECKING:
    from repro.common.clock import SimulatedClock
    from repro.common.events import EventBus
    from repro.engine.batch import Batch
    from repro.fe.context import ServiceContext
    from repro.sqldb.transaction import SqlDbTransaction
    from repro.sto.orchestrator import SystemTaskOrchestrator


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


#: Reads one view's live records from an :class:`Introspector`.
Provider = Callable[["Introspector"], List[Dict[str, Any]]]


@contextmanager
def _catalog(context: "ServiceContext") -> "Iterator[SqlDbTransaction]":
    """A catalog read transaction, aborted on exit (views never write)."""
    txn = context.sqldb.begin()
    try:
        yield txn
    finally:
        txn.abort()


def _optional(component: str, method: str) -> Provider:
    """Rows of ``context.<component>.<method>()``: no rows while that
    optional component (the gateway, a telemetry collector) is absent."""
    get = operator.attrgetter(component)

    def rows(introspector: "Introspector") -> List[Dict[str, Any]]:
        source = get(introspector.context)
        return [] if source is None else getattr(source, method)()

    return rows


def _transactions(introspector: "Introspector") -> List[Dict[str, Any]]:
    active_ids = {
        txn.txid for txn in introspector.context.sqldb.active_transactions
    }
    rows = []
    for record in introspector.ledger.records():
        row = dict(record)
        if row["status"] == "active" and row["txid"] not in active_ids:
            # The FE never published a terminal event (a simulated crash
            # skips the abort path); the engine has since resolved the
            # transaction, so it must not show active.
            row["status"] = "scavenged"
        row["tables"] = ",".join(str(t) for t in record["tables"])
        rows.append(row)
    return rows


def _storage_health(introspector: "Introspector") -> List[Dict[str, Any]]:
    # Both import repro.telemetry, so they are imported at call time.
    from repro.fe.write_path import snapshot_stats
    from repro.sto import orchestrator

    context = introspector.context
    sto = introspector.sto
    pending = sto.pending_compactions if sto is not None else {}
    trigger = orchestrator.COMPACTION_TRIGGER_FRACTION
    with _catalog(context) as txn:
        tables = syscat.list_tables(txn)
    rows = []
    for table in sorted(tables, key=lambda t: t["table_id"]):
        table_id = table["table_id"]
        try:
            snapshot = context.cache.get(table_id, context.sqldb.last_commit_seq)
        except PolarisError:
            # Unrepairable metadata loss: the snapshot cannot even be
            # reconstructed, so surface the table RED with no stats
            # rather than failing the whole view.
            stats = TableStats(table_id, 0, 0, 0, 0, 0)
            dv_count, pending_compaction, state = 0, False, "RED"
        else:
            stats = snapshot_stats(context, table_id, snapshot)
            dv_count = len(snapshot.dvs)
            pending_compaction = table_id in pending
            if (
                (sto is not None and sto.health.integrity_compromised(table_id))
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
                "dv_count": dv_count,
                "pending_compaction": pending_compaction,
            }
        )
    return rows


def _storage_integrity(introspector: "Introspector") -> List[Dict[str, Any]]:
    if introspector.sto is None:
        return []
    return [
        vars(record)
        for report in introspector.sto.scrub_reports
        for record in report.records
    ]


def _checkpoints(introspector: "Introspector") -> List[Dict[str, Any]]:
    rows = []
    with _catalog(introspector.context) as txn:
        for table in sorted(syscat.list_tables(txn), key=lambda t: t["table_id"]):
            for row in syscat.checkpoints_for_table(txn, table["table_id"]):
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


def _store_operations(introspector: "Introspector") -> List[Dict[str, Any]]:
    context = introspector.context
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

    for operation, count in context.store.meter.requests.items():
        slot(operation)["requests"] = count
    for __, name, labels, instrument in context.telemetry.metrics.instruments():
        if name == "storage.faults_injected":
            slot(labels.get("op", "?"))["faults"] = int(instrument.value)
        elif name == "storage.request_latency_s":
            row = slot(labels.get("op", "?"))
            summary = instrument.summary()
            row["latency_count"] = int(summary["count"])
            for stat in ("mean", "p50", "p95", "p99", "max"):
                row[f"latency_{stat}_s"] = summary[stat]
    return [per_op[operation] for operation in sorted(per_op)]


def _metrics(introspector: "Introspector") -> List[Dict[str, Any]]:
    rows = []
    for kind, name, labels, instrument in (
        introspector.context.telemetry.metrics.instruments()
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


def _metrics_history(introspector: "Introspector") -> List[Dict[str, Any]]:
    sampler = introspector.context.telemetry.sampler
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


def _commit_lock(introspector: "Introspector") -> List[Dict[str, Any]]:
    # One row, always available: the lock itself keeps local aggregates,
    # so holder/hold accounting needs neither metrics nor wait stats on.
    lock = introspector.context.sqldb.commit_lock
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


def _table_stats(introspector: "Introspector") -> List[Dict[str, Any]]:
    with _catalog(introspector.context) as txn:
        rows = syscat.all_table_stats(txn)
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


def _index_stats(introspector: "Introspector") -> List[Dict[str, Any]]:
    context = introspector.context
    with _catalog(context) as txn:
        names = {t["table_id"]: t["name"] for t in syscat.list_tables(txn)}
        index_rows = syscat.all_indexes(txn)
    optimizer = context.optimizer
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


class Introspector:
    """Resolves ``sys.dm_*`` view names into schemas and row batches."""

    #: View name -> (schema, rows): the one declaration of each view.
    #: ``rows(introspector)`` reads the view's live records; a record may
    #: carry keys beyond the schema, which every reader ignores.  The SQL
    #: runner and the docs both derive the catalog from this table.
    VIEWS: Dict[str, Tuple[Schema, Provider]] = {
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
            _transactions,
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
            _storage_health,
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
            _storage_integrity,
        ),
        "sys.dm_checkpoints": (
            Schema.of(
                ("table_id", "int64"),
                ("table_name", "string"),
                ("sequence_id", "int64"),
                ("path", "string"),
                ("created_at", "float64"),
            ),
            _checkpoints,
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
            _store_operations,
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
            lambda introspector: introspector.ledger.recoveries(),
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
            _optional("gateway", "session_rows"),
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
            _optional("gateway", "request_rows"),
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
            _metrics,
        ),
        "sys.dm_metrics_history": (
            Schema.of(
                ("sample_id", "int64"),
                ("at", "float64"),
                ("metric", "string"),
                ("value", "float64"),
            ),
            _metrics_history,
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
            _optional("telemetry.querystore", "query_stats_rows"),
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
            _optional("telemetry.querystore", "query_plans_rows"),
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
            _optional("telemetry.querystore", "operator_stats_rows"),
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
            _optional("telemetry.waits", "wait_stats_rows"),
        ),
        "sys.dm_exec_query_waits": (
            Schema.of(
                ("query_hash", "string"),
                ("wait_kind", "string"),
                ("waits", "int64"),
                ("total_wait_s", "float64"),
                ("max_wait_s", "float64"),
            ),
            _optional("telemetry.waits", "query_waits_rows"),
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
            _commit_lock,
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
            _table_stats,
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
            _index_stats,
        ),
    }

    def __init__(self, context: "ServiceContext") -> None:
        self.context = context
        #: The orchestrator, once bound (pending compactions and scrub
        #: reports feed the storage views).
        self.sto: "Optional[SystemTaskOrchestrator]" = None
        self.ledger = TransactionLedger(context.bus, context.clock)

    def bind_sto(self, sto: "SystemTaskOrchestrator") -> None:
        """Attach the orchestrator (pending compactions feed RED state)."""
        self.sto = sto

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
        """The view's current records (live state, read at call time);
        a record may carry keys beyond the view's columns."""
        return self.VIEWS[name.lower()][1](self)

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

    def export_jsonl(self, name: str, path: Optional[str] = None) -> str:
        """The view's rows projected on its columns, one sorted-key JSON
        object per line; written to ``path`` (and ``path`` returned) if
        given.  Everything a view reads runs on the simulated clock and
        seeded reservoirs, so same-seed runs export byte-identical text."""
        columns = self.schema(name).names
        payload = "".join(
            json.dumps({column: row[column] for column in columns}, sort_keys=True)
            + "\n"
            for row in self.rows(name)
        )
        if path is None:
            return payload
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        return path

    # -- end-of-run report ----------------------------------------------------

    def report(self) -> str:
        """A human-readable end-of-run health report built from the DMVs."""
        context = self.context
        lines = [f"=== observability report ({context.database}) ==="]
        for label, view, column, empty in (
            ("transactions", "sys.dm_transactions", "status", "none"),
            ("storage health", "sys.dm_storage_health", "state", "no tables"),
        ):
            counts = Counter(row[column] for row in self.rows(view))
            summary = ", ".join(
                f"{count} {value}" for value, count in sorted(counts.items())
            )
            lines.append(f"{label}: {summary or empty}")
        meter = context.store.meter
        lines.append(
            f"object store: {meter.total_requests} requests, "
            f"{meter.bytes_read} B read, {meter.bytes_written} B written"
        )
        chunks = context.chunk_cache
        lines.append(
            f"chunk cache: {int(chunks.hits.value)} hits, "
            f"{int(chunks.misses.value)} misses, "
            f"{int(chunks.evictions.value)} evictions, "
            f"{chunks.resident_bytes} B resident"
        )
        lines.append(f"checkpoints: {len(self.rows('sys.dm_checkpoints'))}")
        lines.append(f"recovery runs: {len(self.rows('sys.dm_recovery_history'))}")
        alerts = sum(
            row["value"]
            for row in self.rows("sys.dm_metrics")
            if row["name"] == "watchdog.alerts"
        )
        lines.append(f"watchdog alerts: {int(alerts)}")
        return "\n".join(lines)
