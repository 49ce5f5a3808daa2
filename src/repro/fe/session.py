"""Sessions: the statement-level entry point users hold.

A session executes statements either inside an explicit transaction
(:meth:`begin` … :meth:`commit`/:meth:`rollback`) or in auto-commit mode
(each statement is wrapped in its own transaction, exactly as T-SQL does).
All mixes of statements are supported inside one transaction: queries,
inserts, bulk loads, updates, deletes, DDL, clones — the multi-statement,
multi-table semantics of Section 3.2.3.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import (
    SimulatedCrash,
    TransactionStateError,
    WriteConflictError,
)
from repro.engine.batch import Batch
from repro.engine.expressions import Expr
from repro.engine.planner import Plan
from repro.fe import catalog as ddl
from repro.fe import clone as clone_mod
from repro.fe import constraints, read_path, write_path
from repro.fe.context import ServiceContext
from repro.fe.transaction import PolarisTransaction
from repro.lst.snapshot import TableSnapshot
from repro.pagefile.schema import Schema


class Session:
    """One user connection to the warehouse."""

    def __init__(self, context: ServiceContext) -> None:
        self._context = context
        self._txn: Optional[PolarisTransaction] = None
        self._sql = None

    def sql(self, text: str):
        """Execute one SQL statement against this session.

        Convenience front door over :class:`repro.sql.runner.SqlSession`
        (created lazily, imported lazily to avoid a circular import):
        SELECTs return a batch, DML a row count, and ``sys.dm_*`` system
        views resolve to live engine state.
        """
        if self._sql is None:
            from repro.sql.runner import SqlSession

            self._sql = SqlSession(self)
        return self._sql.execute(text)

    # -- explicit transactions -------------------------------------------------

    def begin(self, isolation: Optional[str] = None) -> PolarisTransaction:
        """Start an explicit transaction."""
        if self._txn is not None and self._txn.is_active:
            raise TransactionStateError("a transaction is already active")
        self._txn = PolarisTransaction(self._context, isolation)
        return self._txn

    def commit(self) -> Optional[int]:
        """Commit the explicit transaction; returns its sequence id."""
        txn = self._require_txn()
        self._txn = None
        return txn.commit()

    def rollback(self) -> None:
        """Roll back the explicit transaction."""
        txn = self._require_txn()
        self._txn = None
        txn.rollback()

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is active."""
        return self._txn is not None and self._txn.is_active

    def _require_txn(self) -> PolarisTransaction:
        if self._txn is None or not self._txn.is_active:
            raise TransactionStateError("no active transaction")
        return self._txn

    # -- statements ----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        distribution_column: Optional[str] = None,
        sort_column: "str | Sequence[str] | None" = None,
        unique_column: Optional[str] = None,
    ) -> int:
        """CREATE TABLE; returns the table id.

        ``distribution_column`` spreads rows across cells (d(r));
        ``sort_column`` orders rows within data files for range retrieval
        (p(r), the Z-order stand-in); ``unique_column`` opts into
        unique-key enforcement — off by default because of its insert
        cost, exactly as the paper argues (Section 4.4.3).
        """
        return self._run(
            lambda txn: ddl.create_table(
                self._context, txn.root, name, schema,
                distribution_column, sort_column, unique_column,
            ),
            name="create_table",
            table=name,
        )

    def insert(self, table: str, batch: Batch) -> int:
        """INSERT a batch of rows; returns the row count."""

        def statement(txn: PolarisTransaction) -> int:
            table_row = ddl.describe_table(txn.root, table)
            constraints.check_unique(self._context, txn, table_row, batch)
            return write_path.execute_insert(self._context, txn, table_row, batch)

        return self._run(statement, name="insert", table=table)

    def bulk_load(self, table: str, source_batches: Sequence[Batch]) -> int:
        """Bulk load from multiple source files; returns total rows."""

        def statement(txn: PolarisTransaction) -> int:
            table_row = ddl.describe_table(txn.root, table)
            column = table_row.get("unique_column")
            if column is not None:
                # One check over all source files catches cross-file
                # duplicates within the statement too.
                keys = [
                    np.asarray(batch[column])
                    for batch in source_batches
                    if len(batch[column])
                ]
                if keys:
                    constraints.check_unique(
                        self._context, txn, table_row,
                        {column: np.concatenate(keys)},
                    )
            return write_path.execute_bulk_load(
                self._context, txn, table_row, source_batches
            )

        return self._run(statement, name="bulk_load", table=table)

    def delete(
        self,
        table: str,
        predicate: Expr,
        prune: Sequence[Tuple[str, str, Any]] = (),
    ) -> int:
        """DELETE matching rows; returns the number deleted."""
        return self._run(
            lambda txn: write_path.execute_delete(
                self._context, txn, ddl.describe_table(txn.root, table), predicate, prune
            ),
            name="delete",
            table=table,
        )

    def update(
        self,
        table: str,
        predicate: Expr,
        assignments: Dict[str, Expr],
        prune: Sequence[Tuple[str, str, Any]] = (),
    ) -> int:
        """UPDATE matching rows; returns the number updated."""
        return self._run(
            lambda txn: write_path.execute_update(
                self._context,
                txn,
                ddl.describe_table(txn.root, table),
                predicate,
                assignments,
                prune,
            ),
            name="update",
            table=table,
        )

    def query(self, plan: Plan, as_of: Optional[float] = None) -> Batch:
        """Execute a query plan; with ``as_of``, time-travel the scans."""
        return self._run(
            lambda txn: read_path.execute_query(self._context, txn, plan, as_of=as_of),
            name="query",
        )

    def query_profiled(
        self, plan: Plan, as_of: Optional[float] = None
    ) -> "read_path.PlanProfile":
        """Execute a query plan collecting per-operator stats.

        Identical clock charges and span shape to :meth:`query` — the
        query store routes SELECTs through here so every execution yields
        cardinality feedback (est vs actual rows per operator) without
        rendering EXPLAIN ANALYZE text.
        """
        return self._run(
            lambda txn: read_path.execute_query_profiled(
                self._context, txn, plan, as_of=as_of
            ),
            name="query",
        )

    def explain_analyze(
        self, plan: Plan, as_of: Optional[float] = None
    ) -> "read_path.PlanProfile":
        """EXPLAIN ANALYZE: execute ``plan`` and annotate its operators.

        Runs exactly like :meth:`query` (same DCP scans, same clock
        charges) but returns a :class:`~repro.engine.explain.PlanProfile`
        whose ``text`` shows per-operator rows, simulated time, and file /
        row-group pruning counts, with the output batch on ``.batch``.
        """
        return self._run(
            lambda txn: read_path.execute_query_analyzed(
                self._context, txn, plan, as_of=as_of
            ),
            name="explain_analyze",
        )

    def analyze_table(self, table: str):
        """ANALYZE: collect and persist optimizer statistics for a table.

        Scans the transaction's snapshot of ``table`` (charging the IO
        and CPU to the simulated clock) and buffers a versioned
        ``TableStats`` catalog row; commit makes it visible atomically.
        Returns the collected
        :class:`~repro.optimizer.statistics.TableStatistics`.
        """
        def statement(txn: PolarisTransaction):
            optimizer: "QueryOptimizer" = self._require_optimizer()
            return optimizer.analyze_table(txn, table)

        return self._run(statement, name="analyze", table=table)

    def create_index(self, table: str, index_name: str, column: str):
        """CREATE INDEX: build a sorted-run secondary index over a column.

        Returns the catalog payload (path, entries, covered files).
        """
        def statement(txn: PolarisTransaction):
            optimizer: "QueryOptimizer" = self._require_optimizer()
            return optimizer.create_index(txn, table, index_name, column)

        return self._run(statement, name="create_index", table=table)

    def optimized_plan(self, plan: Plan) -> Plan:
        """The plan after the cost-based rewrite (EXPLAIN's view).

        Opens a throwaway read transaction to resolve statistics; the
        plan is not executed.
        """
        txn = PolarisTransaction(self._context)
        try:
            return read_path.optimize_plan(self._context, txn, plan)
        finally:
            txn.rollback()

    def _require_optimizer(self):
        if self._context.optimizer is None:
            raise TransactionStateError(
                "this deployment has no query optimizer attached"
            )
        return self._context.optimizer

    def clone_table(
        self, source: str, target: str, as_of: Optional[float] = None
    ) -> int:
        """Zero-copy clone; returns the clone's table id."""
        return self._run(
            lambda txn: clone_mod.clone_table(
                self._context, txn.root, source, target, as_of
            ),
            name="clone_table",
            table=source,
        )

    # -- introspection --------------------------------------------------------------

    def table_snapshot(self, table: str) -> TableSnapshot:
        """Latest committed snapshot of a table (outside any transaction)."""
        txn = PolarisTransaction(self._context)
        try:
            row = ddl.describe_table(txn.root, table)
            return txn.committed_snapshot(row["table_id"])
        finally:
            txn.rollback()

    def table_names(self) -> List[str]:
        """All table names visible right now."""
        txn = self._context.sqldb.begin()
        try:
            return ddl.list_table_names(txn)
        finally:
            txn.abort()

    # -- internals ---------------------------------------------------------------------

    def _run(self, statement, name: str = "statement", **span_attrs):
        """Execute a statement in the active or an auto-commit transaction.

        Auto-commit statements whose validation hits a write-write conflict
        (e.g. an autonomous compaction committed mid-statement) are
        transparently re-executed on a fresh snapshot, up to
        ``config.txn.commit_retries`` times — the paper's "retried
        otherwise".  Statements inside an explicit transaction are never
        retried: the whole user transaction aborted, and only the user can
        decide to re-run it.

        Every execution runs under a statement span that is a child of the
        transaction's root span, so traces show statement nesting for both
        explicit and auto-commit transactions.
        """
        if self._txn is not None and self._txn.is_active:
            return self._traced(statement, self._txn, name, span_attrs)
        attempts = 1 + max(0, self._context.config.txn.commit_retries)
        for attempt in range(1, attempts + 1):
            txn = PolarisTransaction(self._context)
            txn.retries = attempt - 1
            try:
                result = self._traced(statement, txn, name, span_attrs)
            except SimulatedCrash:
                # A dead process cannot roll back; recovery scavenges the
                # transaction from the engine's active registry instead.
                raise
            except BaseException:
                txn.rollback()
                raise
            try:
                txn.commit()
            except WriteConflictError:
                if attempt == attempts:
                    raise
                continue
            return result
        raise AssertionError("unreachable")

    def _traced(self, statement, txn, name, span_attrs):
        """Run one statement body under a span parented to the transaction."""
        tel = self._context.telemetry
        if not tel.tracing:
            return statement(txn)
        with tel.activate(txn.span):
            with tel.span("stmt." + name, "statement", **span_attrs):
                return statement(txn)
