"""Executing parsed SQL against a warehouse session."""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

import numpy as np

from repro.engine.batch import Batch, num_rows
from repro.engine.executor import dict_scan_source, execute_plan
from repro.engine.explain import explain as explain_plan, operator_summaries
from repro.engine.expressions import Lit
from repro.fe.catalog import describe_table, table_schema
from repro.fe.session import Session
from repro.pagefile.schema import Schema
from repro.sql.ast_nodes import (
    AnalyzeStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    TransactionStatement,
    UpdateStatement,
)
from repro.sql.binder import Binder
from repro.sql.lexer import SqlSyntaxError, tokenize
from repro.sql.parser import parse
from repro.sql.plan_cache import Shape
from repro.sqldb.system_tables import TABLES


class SqlSession:
    """A session facade that executes SQL text.

    >>> sql = SqlSession(warehouse.session())
    >>> sql.execute("CREATE TABLE t (id bigint, v double)")
    >>> sql.execute("INSERT INTO t (id, v) VALUES (1, 2.5), (2, 3.5)")
    >>> sql.execute("SELECT id, v FROM t WHERE v > 3")

    Each statement is lexed once; the parser and the query-store
    fingerprint read the same tokens.  A user-table ``SELECT`` whose
    tokens match an earlier one's except in literal values reuses that
    statement's bound plan from the deployment's
    :class:`~repro.sql.plan_cache.PlanCache`, with the new literals put in:
    parse, the schema read and bind are skipped, while the optimizer
    rewrite, execution and every charge run as for a compiled plan.
    ``EXPLAIN``, ``sys.*`` views and every other statement always compile.
    """

    _EXPLAIN_RE = re.compile(r"^\s*EXPLAIN(\s+ANALYZE)?\s+", re.IGNORECASE)

    def __init__(self, session: Session) -> None:
        self.session = session

    def execute(self, text: str):
        """Run one statement; SELECTs return a batch, DML a row count.

        ``EXPLAIN SELECT ...`` returns the compiled plan as text without
        executing; ``EXPLAIN ANALYZE SELECT ...`` executes the query and
        returns the operator tree annotated with rows, simulated time and
        pruning counts.
        """
        match = self._EXPLAIN_RE.match(text)
        if match:
            # EXPLAIN is a diagnostic, not a workload statement: it never
            # enters the query store.
            return self._explain(text[match.end():], analyze=bool(match.group(1)))
        tokens = tokenize(text)
        shape = Shape.of(tokens)
        plan = None
        if shape is not None:
            plan = self.session._context.plan_cache.get(shape, self._tables_seq())
        if plan is None:
            statement = parse(text, tokens)
            kind = type(statement).__name__.replace("Statement", "").lower()
        else:
            kind = "select"
        # One scope per statement: its fingerprint frame, its query-store
        # execution (``pending``; None with the store off) and its span.
        # An error inside the body — row extraction included — finishes
        # the execution as failed; a SimulatedCrash leaves it in flight.
        telemetry = self.session._context.telemetry
        with telemetry.statement(text, kind, tokens) as pending:
            if plan is None:
                result = self._dispatch(statement, pending, shape)
            else:
                result = self._run_select(plan, pending)
            if pending is not None and kind in (
                "select", "insert", "delete", "update"
            ):
                # CREATE TABLE returns a table id, BEGIN/COMMIT return None
                # — only row-producing statements feed the rows aggregate.
                pending.rows = _result_rows(result)
        return result

    def _dispatch(self, statement, pending=None, shape: Optional[Shape] = None):
        if isinstance(statement, SelectStatement):
            return self._select(statement, pending, shape)
        if isinstance(statement, InsertStatement):
            return self._insert(statement)
        if isinstance(statement, DeleteStatement):
            return self._delete(statement)
        if isinstance(statement, UpdateStatement):
            return self._update(statement)
        if isinstance(statement, CreateTableStatement):
            return self._create_table(statement)
        if isinstance(statement, CreateIndexStatement):
            return self._create_index(statement)
        if isinstance(statement, AnalyzeStatement):
            return self._analyze(statement)
        if isinstance(statement, TransactionStatement):
            return self._transaction(statement)
        raise SqlSyntaxError(f"unsupported statement {statement!r}")

    def _explain(self, select_text: str, analyze: bool):
        """EXPLAIN: plan text; EXPLAIN ANALYZE: executed, annotated text."""
        statement = parse(select_text)
        if not isinstance(statement, SelectStatement):
            raise SqlSyntaxError("EXPLAIN supports only SELECT statements")
        tables = [statement.table] + [j.table for j in statement.joins]
        if any(_is_system_name(t) for t in tables):
            if analyze:
                raise SqlSyntaxError(
                    "EXPLAIN ANALYZE is not supported on sys.* system views"
                )
            schemas = {
                table: self._introspector(table).schema(table)
                for table in tables
            }
            return explain_plan(Binder(schemas).bind_select(statement))
        plan = Binder(self._schemas_for(tables)).bind_select(statement)
        if not analyze:
            # Plain EXPLAIN shows what *would* run: the plan after the
            # cost-based optimizer's rewrite (a no-op without statistics).
            return explain_plan(self.session.optimized_plan(plan))
        return self.session.explain_analyze(plan).text

    # -- statement kinds ------------------------------------------------------

    def _tables_seq(self) -> int:
        """Commit sequence of the newest ``Tables`` row install: a bound
        plan stays valid while it is unchanged."""
        return self.session._context.sqldb.store.last_install_seq(TABLES)

    def _schemas_for(self, tables: List[str]) -> Dict[str, Schema]:
        txn = self.session._context.sqldb.begin()
        try:
            return {
                name: table_schema(describe_table(txn, name)) for name in tables
            }
        finally:
            txn.abort()

    def _select(
        self, stmt: SelectStatement, pending=None, shape: Optional[Shape] = None
    ) -> Batch:
        tables = [stmt.table] + [j.table for j in stmt.joins]
        if any(_is_system_name(t) for t in tables):
            return self._select_system(stmt, tables, pending)
        tables_seq = self._tables_seq()
        plan = Binder(self._schemas_for(tables)).bind_select(stmt)
        if shape is not None:
            self.session._context.plan_cache.put(shape, tables_seq, plan)
        return self._run_select(plan, pending)

    def _run_select(self, plan, pending=None) -> Batch:
        """Optimize and execute a bound user-table plan."""
        if pending is not None:
            profile = self.session.query_profiled(plan)
            # Fingerprint the plan that actually ran — the optimizer may
            # have reordered its joins before execution.
            pending.record_plan(
                explain_plan(profile.plan),
                operator_summaries(
                    profile.plan, profile.stats, profile.estimates
                ),
            )
            return profile.batch
        return self.session.query(plan)

    # -- system views ---------------------------------------------------------

    def _introspector(self, name: str):
        """The context's introspector; rejects names it cannot resolve."""
        introspector = self.session._context.introspection
        if introspector is None:
            raise SqlSyntaxError(
                f"cannot resolve {name!r}: this deployment has no introspector"
            )
        if not introspector.has_view(name):
            raise SqlSyntaxError(
                f"unknown system view {name!r}; available: "
                + ", ".join(introspector.view_names())
            )
        return introspector

    def _select_system(
        self, stmt: SelectStatement, tables: List[str], pending=None
    ) -> Batch:
        """SELECT over ``sys.dm_*`` views: bind against the view schemas and
        execute over batches materialized from live engine state — no user
        transaction is opened, so the query never observes itself."""
        user_tables = [t for t in tables if not _is_system_name(t)]
        if user_tables:
            raise SqlSyntaxError(
                "system views cannot be joined with user tables: "
                + ", ".join(user_tables)
            )
        schemas = {}
        batches = {}
        for table in tables:
            introspector = self._introspector(table)
            schemas[table] = introspector.schema(table)
            batches[table] = introspector.batch(table)
        plan = Binder(schemas).bind_select(stmt)
        if pending is not None:
            # System views are served from memory — no operator profile,
            # but the plan shape is still worth a dm_exec_query_plans row.
            pending.record_plan(explain_plan(plan), [])
        return execute_plan(plan, dict_scan_source(batches))

    def _insert(self, stmt: InsertStatement) -> int:
        _reject_system_write(stmt.table, "INSERT")
        schema = self._schemas_for([stmt.table])[stmt.table]
        missing = [c for c in stmt.columns if c not in schema]
        if missing:
            raise SqlSyntaxError(f"unknown insert columns {missing}")
        if set(stmt.columns) != set(schema.names):
            raise SqlSyntaxError(
                "INSERT must provide every column "
                f"({schema.names}); got {stmt.columns}"
            )
        batch: Batch = {}
        for index, column in enumerate(stmt.columns):
            values = [row[index] for row in stmt.rows]
            batch[column] = _coerce(schema.field(column).type, values)
        return self.session.insert(stmt.table, batch)

    def _delete(self, stmt: DeleteStatement) -> int:
        _reject_system_write(stmt.table, "DELETE")
        binder = Binder(self._schemas_for([stmt.table]))
        if stmt.where is None:
            return self.session.delete(stmt.table, Lit(True))
        predicate = binder._bind_expr(stmt.where, [stmt.table])
        prune = []
        from repro.sql.binder import _flatten_and

        for conjunct in _flatten_and(stmt.where):
            prune.extend(binder._prune_of(conjunct, [stmt.table]))
        return self.session.delete(stmt.table, predicate, prune=prune)

    def _update(self, stmt: UpdateStatement) -> int:
        _reject_system_write(stmt.table, "UPDATE")
        binder = Binder(self._schemas_for([stmt.table]))
        assignments = {
            column: binder._bind_expr(expr, [stmt.table])
            for column, expr in stmt.assignments
        }
        predicate = (
            binder._bind_expr(stmt.where, [stmt.table])
            if stmt.where is not None
            else Lit(True)
        )
        prune = []
        if stmt.where is not None:
            from repro.sql.binder import _flatten_and

            for conjunct in _flatten_and(stmt.where):
                prune.extend(binder._prune_of(conjunct, [stmt.table]))
        return self.session.update(stmt.table, predicate, assignments, prune=prune)

    def _create_table(self, stmt: CreateTableStatement) -> int:
        _reject_system_write(stmt.table, "CREATE TABLE")
        schema = Schema.of(*stmt.columns)
        sort = stmt.options.get("sort")
        return self.session.create_table(
            stmt.table,
            schema,
            distribution_column=stmt.options.get("distribution"),
            sort_column=sort,
            unique_column=stmt.options.get("unique"),
        )

    def _create_index(self, stmt: CreateIndexStatement) -> int:
        _reject_system_write(stmt.table, "CREATE INDEX")
        payload = self.session.create_index(
            stmt.table, stmt.index_name, stmt.column
        )
        return int(payload["entries"])

    def _analyze(self, stmt: AnalyzeStatement) -> int:
        _reject_system_write(stmt.table, "ANALYZE")
        stats = self.session.analyze_table(stmt.table)
        return int(stats.row_count)

    def _transaction(self, stmt: TransactionStatement):
        if stmt.action == "begin":
            self.session.begin()
            return None
        if stmt.action == "commit":
            return self.session.commit()
        self.session.rollback()
        return None


def execute(session: Session, text: str):
    """One-shot convenience: ``execute(session, "SELECT ...")``."""
    return SqlSession(session).execute(text)


def _result_rows(result) -> int:
    """Rows produced by one statement, whatever shape its result takes."""
    if isinstance(result, dict):
        return num_rows(result)
    if isinstance(result, (int, np.integer)):
        return int(result)
    return 0


def _is_system_name(table: str) -> bool:
    """Whether ``table`` names the reserved ``sys.*`` schema."""
    return table.lower().startswith("sys.")


def _reject_system_write(table: str, verb: str) -> None:
    """DML/DDL against ``sys.*`` is always an error: the views are virtual."""
    if _is_system_name(table):
        raise SqlSyntaxError(f"{verb} on {table!r}: sys.* system views are read-only")


def _coerce(type_name: str, values: List[Any]) -> np.ndarray:
    if type_name == "int64":
        return np.array(values, dtype=np.int64)
    if type_name == "float64":
        return np.array([float(v) for v in values], dtype=np.float64)
    if type_name == "bool":
        return np.array(values, dtype=bool)
    return np.array([str(v) for v in values], dtype=object)
