"""The query optimizer attached to a deployment's service context.

One :class:`QueryOptimizer` per warehouse owns the four moving parts:

* ``ANALYZE`` — scan a table snapshot, distill per-column statistics,
  persist them as a versioned ``TableStats`` catalog row inside the
  caller's transaction (so a crash mid-ANALYZE leaves no partial stats);
* ``CREATE INDEX`` — build a sorted-run index file over the pagefile
  format and register it in the ``Indexes`` catalog, recording exactly
  which data files it covers;
* **plan rewriting** — the cost-based pass of
  :mod:`repro.optimizer.rewrite`, gated on statistics existing for every
  table in the plan;
* **index pruning** — equality conjuncts drop covered data files the
  index proves cannot match, beyond what zone maps can do for
  hash-distributed keys.

Query-store feedback closes the loop: each ANALYZE inspects the store's
per-operator misestimate ratios for the table's scans and folds a
correction factor into the new statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.common.errors import CatalogError
from repro.engine.planner import Plan, tables_of
from repro.lst.snapshot import TableSnapshot
from repro.optimizer import cardinality
from repro.optimizer.cost import plan_costs
from repro.optimizer.indexes import SortedRunIndex, build_index_bytes
from repro.optimizer.rewrite import RewriteInfo, rewrite_plan
from repro.optimizer.statistics import (
    SOURCE_ANALYZE,
    TableStatistics,
    collect_table_statistics,
)
from repro.sqldb import system_tables as catalog
from repro.sqldb.transaction import SqlDbTransaction
from repro.storage.paths import index_file_path

if TYPE_CHECKING:
    from repro.fe.context import ServiceContext
    from repro.fe.transaction import PolarisTransaction


class QueryOptimizer:
    """Statistics, secondary indexes and cost-based plan choice."""

    def __init__(self, context: "ServiceContext") -> None:
        self._context = context
        self._config = context.config.optimizer
        #: Loaded index files keyed by blob path (immutable blobs, so
        #: the cache never goes stale — a rebuild writes a new path).
        self._index_cache: Dict[str, SortedRunIndex] = {}
        #: In-memory usage counters per (table_id, index_name), surfaced
        #: by ``sys.dm_index_stats``.
        self._index_usage: Dict[Tuple[int, str], Dict[str, int]] = {}

    # -- ANALYZE --------------------------------------------------------------

    def analyze_table(
        self,
        txn: "PolarisTransaction",
        table_name: str,
        source: str = SOURCE_ANALYZE,
    ) -> TableStatistics:
        """Collect and persist statistics for ``table_name``.

        The scan reads the transaction's snapshot (every data file minus
        deletion vectors), charges its IO/CPU to the simulated clock,
        and buffers the stats row in the transaction — commit makes the
        stats visible atomically, crash before commit leaves the catalog
        untouched.
        """
        from repro.fe.catalog import describe_table, table_schema

        table_row = describe_table(txn.root, table_name)
        table_id = table_row["table_id"]
        schema = table_schema(table_row)
        snapshot = txn.table_snapshot(table_id)
        columns = self._materialize(schema.names, snapshot)
        stats = collect_table_statistics(
            table_id=table_id,
            table_name=table_name,
            sequence_id=snapshot.sequence_id,
            schema=schema,
            columns=columns,
            buckets=self._config.histogram_buckets,
            analyzed_at=self._context.clock.now,
            source=source,
            feedback_factor=self._feedback_factor(table_name),
        )
        from repro.fe.optimizer_path import persist_table_stats

        persist_table_stats(txn, table_id, stats)
        tel = self._context.telemetry
        if tel.metering:
            tel.metrics.counter("optimizer.analyze.runs", source=source).inc()
            tel.metrics.counter("optimizer.analyze.rows_scanned").inc(
                stats.row_count
            )
        return stats

    def _feedback_factor(self, table_name: str) -> float:
        """Correction factor from query-store misestimates on this table.

        Aggregates the store's per-operator est/actual means over
        ``Scan <table>`` operators; if the combined symmetric ratio
        clears the configured threshold, the factor ``actual/est``
        (clamped) multiplies future scan estimates for the table.
        """
        store = getattr(self._context.telemetry, "querystore", None)
        if store is None:
            return 1.0
        label = f"Scan {table_name}"
        est_total = 0.0
        actual_total = 0.0
        for row in store.operator_stats_rows():
            if row["operator"] != label:
                continue
            executions = max(row["executions"], 1)
            est_total += row["est_rows"] * executions
            actual_total += row["actual_rows"] * executions
        if est_total <= 0.0 or actual_total <= 0.0:
            return 1.0
        ratio = max(est_total, actual_total) / min(est_total, actual_total)
        if ratio < self._config.misestimate_threshold:
            return 1.0
        cap = self._config.feedback_factor_cap
        factor = actual_total / est_total
        return min(max(factor, 1.0 / cap), cap)

    # -- CREATE INDEX ---------------------------------------------------------

    def create_index(
        self,
        txn: "PolarisTransaction",
        table_name: str,
        index_name: str,
        column: str,
    ) -> Dict[str, Any]:
        """Build a sorted-run index over ``column`` and register it.

        The index blob is written before the catalog row is buffered, so
        a crash in between leaves an orphaned ``_indexes/`` blob that
        recovery's catalog reconciliation scavenges.  Rebuilding under
        an existing name replaces the catalog row (the old blob becomes
        an orphan for the same scavenger).
        """
        from repro.fe.catalog import describe_table, table_schema

        table_row = describe_table(txn.root, table_name)
        table_id = table_row["table_id"]
        schema = table_schema(table_row)
        if column not in schema:
            raise CatalogError(
                f"cannot index unknown column {column!r} of {table_name!r}"
            )
        key_field = schema.field(column)
        snapshot = txn.table_snapshot(table_id)
        pairs = self._key_file_pairs(key_field.name, snapshot)
        data, entries = build_index_bytes(
            key_field, pairs, self._context.config.row_group_size
        )
        path = index_file_path(
            self._context.database, table_id, index_name, snapshot.sequence_id
        )
        from repro.fe.optimizer_path import publish_index

        payload = {
            "column": column,
            "col_type": key_field.type,
            "path": path,
            "sequence_id": snapshot.sequence_id,
            "covered_files": sorted(snapshot.files),
            "entries": entries,
            "size_bytes": len(data),
            "built_at": self._context.clock.now,
        }
        publish_index(
            self._context, txn, table_id, index_name, path, data, payload
        )
        self._index_usage.setdefault(
            (table_id, index_name), {"lookups": 0, "files_pruned": 0}
        )
        tel = self._context.telemetry
        if tel.metering:
            tel.metrics.counter("optimizer.index.builds").inc()
            tel.metrics.counter("optimizer.index.entries").inc(entries)
        return payload

    def refresh_indexes(self, txn: "PolarisTransaction", table_id: int) -> int:
        """Rebuild every index of ``table_id`` that lags its snapshot.

        The STO's maintenance hook after commits and compactions.
        Returns the number of indexes rebuilt.
        """
        rows = catalog.indexes_for_table(txn.root, table_id)
        if not rows:
            return 0
        current = txn.table_snapshot(table_id).sequence_id
        table_row = catalog.get_table(txn.root, table_id)
        if table_row is None:
            return 0
        rebuilt = 0
        for row in rows:
            if row["sequence_id"] >= current:
                continue
            self.create_index(
                txn, table_row["name"], row["index_name"], row["column"]
            )
            rebuilt += 1
        return rebuilt

    # -- plan rewriting -------------------------------------------------------

    def catalog_inputs(
        self, txn: "PolarisTransaction", plan: Plan
    ) -> Dict[str, TableStatistics]:
        """The newest visible statistics of ``plan``'s base tables, by
        table name (tables never analyzed are absent).

        One pass per statement: the rewrite and the EXPLAIN annotation
        of the same statement share the result (a rewrite never changes
        which tables a plan references).
        """
        from repro.fe.catalog import describe_table

        stats: Dict[str, TableStatistics] = {}
        for table in tables_of(plan):
            table_id = describe_table(txn.root, table)["table_id"]
            sequence = txn.visible_sequence(table_id)
            row = catalog.latest_table_stats(txn.root, table_id, sequence)
            if row is not None:
                stats[table] = TableStatistics.from_row(row)
        return stats

    def rewrite(
        self,
        txn: "PolarisTransaction",
        plan: Plan,
        inputs: Optional[Dict[str, TableStatistics]] = None,
    ) -> Tuple[Plan, RewriteInfo]:
        """Cost-based rewrite of ``plan`` (identity without full stats).

        ``inputs`` are the statement's already-read :meth:`catalog_inputs`,
        if the caller has them.
        """
        if not self._config.enabled:
            return plan, RewriteInfo()
        if inputs is None:
            inputs = self.catalog_inputs(txn, plan)
        new_plan, info = rewrite_plan(plan, inputs, self._config)
        tel = self._context.telemetry
        if tel.metering and info.applied:
            tel.metrics.counter("optimizer.plan.rewrites").inc()
            if info.reordered:
                tel.metrics.counter("optimizer.plan.reorders").inc()
            if info.transitive_conjuncts:
                tel.metrics.counter(
                    "optimizer.plan.transitive_conjuncts"
                ).inc(info.transitive_conjuncts)
        return new_plan, info

    def annotate(
        self,
        plan: Plan,
        scan_rows: Dict[int, float],
        stats: Dict[str, TableStatistics],
    ) -> Tuple[Dict[int, int], Dict[int, str], Dict[int, float]]:
        """Estimates, provenance and costs for EXPLAIN annotation."""
        provenance: Dict[int, str] = {}
        estimates = cardinality.estimate_with_stats(
            plan, scan_rows, stats, provenance=provenance
        )
        costs = plan_costs(plan, estimates)
        return estimates, provenance, costs

    # -- index pruning --------------------------------------------------------

    def prune_snapshot(
        self,
        root: SqlDbTransaction,
        table_id: int,
        prune: Tuple[Tuple[str, str, Any], ...],
        snapshot: TableSnapshot,
    ) -> TableSnapshot:
        """Drop covered files that indexes prove cannot match.

        Only equality conjuncts consult indexes, and only files recorded
        as covered at build time are ever dropped — files committed
        after the build are always scanned, so stale indexes stay safe.
        """
        if not self._config.enabled or not self._config.index_pruning:
            return snapshot
        equalities = [(c, v) for c, op, v in prune if op == "=="]
        if not equalities or not snapshot.files:
            return snapshot
        rows = catalog.indexes_for_table(root, table_id)
        if not rows:
            return snapshot
        drop: Set[str] = set()
        tel = self._context.telemetry
        for row in rows:
            for column, literal in equalities:
                if row["column"] != column:
                    continue
                index = self._load_index(row)
                pruned = index.prunable_files(literal, set(snapshot.files))
                usage = self._index_usage.setdefault(
                    (table_id, row["index_name"]),
                    {"lookups": 0, "files_pruned": 0},
                )
                usage["lookups"] += 1
                usage["files_pruned"] += len(pruned)
                drop |= pruned
                if tel.metering:
                    tel.metrics.counter("optimizer.index.lookups").inc()
                    tel.metrics.counter("optimizer.index.files_pruned").inc(
                        len(pruned)
                    )
        if not drop:
            return snapshot
        kept = {
            name: info
            for name, info in snapshot.files.items()
            if name not in drop
        }
        return TableSnapshot(
            sequence_id=snapshot.sequence_id,
            files=kept,
            dvs={n: dv for n, dv in snapshot.dvs.items() if n in kept},
            tombstones=snapshot.tombstones,
        )

    def _load_index(self, row: Dict[str, Any]) -> SortedRunIndex:
        """Load (and cache) one index file; the store charges the IO."""
        path = row["path"]
        cached = self._index_cache.get(path)
        if cached is not None:
            return cached
        blob = self._context.store.get(path)
        index = SortedRunIndex.from_bytes(
            row["column"], blob.data, row["covered_files"], source=path
        )
        self._index_cache[path] = index
        return index

    # -- DMV providers --------------------------------------------------------

    def index_usage(self, table_id: int, index_name: str) -> Dict[str, int]:
        """Lifetime lookup/prune counters of one index (zeros if unused)."""
        return dict(
            self._index_usage.get(
                (table_id, index_name), {"lookups": 0, "files_pruned": 0}
            )
        )

    # -- snapshot scanning ----------------------------------------------------

    def _materialize(
        self, columns: List[str], snapshot: TableSnapshot
    ) -> Dict[str, np.ndarray]:
        """Read a snapshot's live rows (files in name order), charging IO."""
        from repro.engine.batch import concat_batches, empty_batch
        from repro.fe.write_path import _load_dv, _open_data_file

        parts = []
        total_rows = 0
        total_bytes = 0
        for name in sorted(snapshot.files):
            info = snapshot.files[name]
            reader = _open_data_file(self._context, info)
            dv = _load_dv(self._context, snapshot.dv_for(name))
            batch = reader.read(columns=list(columns), deletion_vector=dv)
            parts.append(batch)
            total_rows += info.num_rows
            total_bytes += info.size_bytes
        self._context.clock.advance(
            self._context.cost_model.task_duration(
                total_rows, len(snapshot.files), total_bytes
            )
        )
        if not parts:
            return empty_batch(tuple(columns))
        return concat_batches(parts)

    def _key_file_pairs(
        self, column: str, snapshot: TableSnapshot
    ) -> List[Tuple[Any, str]]:
        """Distinct (key, file) pairs across a snapshot's live rows."""
        from repro.fe.write_path import _load_dv, _open_data_file

        pairs: Set[Tuple[Any, str]] = set()
        total_rows = 0
        total_bytes = 0
        for name in sorted(snapshot.files):
            info = snapshot.files[name]
            reader = _open_data_file(self._context, info)
            dv = _load_dv(self._context, snapshot.dv_for(name))
            values = reader.read(columns=[column], deletion_vector=dv)[column]
            for value in np.unique(values) if values.dtype.kind != "O" else set(
                values
            ):
                key = value.item() if isinstance(value, np.generic) else value
                pairs.add((key, name))
            total_rows += info.num_rows
            total_bytes += info.size_bytes
        self._context.clock.advance(
            self._context.cost_model.task_duration(
                total_rows, len(snapshot.files), total_bytes
            )
        )
        return sorted(pairs)
