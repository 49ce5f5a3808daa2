"""Binding: SQL parse trees → engine plans and expressions.

The binder is the reproduction's analogue of the FE's single-phase
compilation (Section 3.3): it resolves names against the catalog, pushes
single-table predicates (and zone-map prune conjuncts) down into the
scans, plans a left-deep join tree in FROM order, and lowers aggregates,
HAVING, ORDER BY and LIMIT onto the plan algebra.

**Integer literals are ``int64``.**  Integer literal arithmetic (``+``,
``-``, ``*`` of integer literals, a unary minus included) is folded here,
exactly, in Python integers, into one literal.  A literal, or a folded
result, outside ``int64`` rejects the statement with :class:`PlanError`.
SQLite would go on in REAL; this engine evaluates integers as ``int64``
and refuses rather than wrap or compare against a rounded value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.engine.expressions import (
    BinOp,
    BoolOp,
    Case,
    Col,
    Expr,
    InList,
    Like,
    Lit,
    Not,
    Substr,
    Year,
    and_,
)
from repro.engine.planner import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Sort,
    TableScan,
)
from repro.pagefile.schema import Schema
from repro.sql.ast_nodes import (
    JoinSpec,
    SBetween,
    SBin,
    SBool,
    SCase,
    SColumn,
    SFunc,
    SIn,
    SLike,
    SLiteral,
    SNot,
    SelectStatement,
)
from repro.sql.lexer import SqlSyntaxError

_AGG_MAP = {"SUM": "sum", "MIN": "min", "MAX": "max", "AVG": "avg"}
_PRUNABLE_OPS = {"==", "<", "<=", ">", ">="}
_COMPARISON_OPS = _PRUNABLE_OPS | {"!="}
_FOLDED_OPS = {"+": int.__add__, "-": int.__sub__, "*": int.__mul__}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class Binder:
    """Binds one SELECT against a set of table schemas."""

    def __init__(self, schemas: Dict[str, Schema]) -> None:
        self._schemas = schemas
        self._column_owner: Dict[str, List[str]] = {}
        for table, schema in schemas.items():
            for name in schema.names:
                self._column_owner.setdefault(name, []).append(table)

    # -- public -------------------------------------------------------------

    def bind_select(self, stmt: SelectStatement) -> Plan:
        """Lower a SELECT statement into a plan."""
        tables = [stmt.table] + [j.table for j in stmt.joins]
        for table in tables:
            if table not in self._schemas:
                raise SqlSyntaxError(f"unknown table {table!r}")
        items = self._expand_star(stmt, tables)

        per_table: Dict[str, List[Expr]] = {t: [] for t in tables}
        residual: List[Expr] = []
        for conjunct in _flatten_and(stmt.where):
            owners = self._tables_of(conjunct, tables)
            bound = self._bind_expr(conjunct, tables)
            if len(owners) == 1:
                per_table[next(iter(owners))].append(bound)
            else:
                residual.append(bound)
        prunes = self.prunes_of(stmt.where, tables)

        needed = self._columns_needed(stmt, items, tables)
        plan: Plan = self._scan(stmt.table, needed, per_table, prunes)
        for join in stmt.joins:
            plan = self._join(plan, join, needed, per_table, prunes, tables)
        if residual:
            plan = Filter(plan, and_(*residual) if len(residual) > 1 else residual[0])

        plan, output_names = self._select_outputs(stmt, items, plan, tables)

        if stmt.distinct:
            # DISTINCT ≡ grouping by every output column with no aggregates.
            plan = Aggregate(plan, tuple(output_names), {})

        if stmt.order_by:
            for name, __ in stmt.order_by:
                if name not in output_names:
                    raise SqlSyntaxError(
                        f"ORDER BY column {name!r} is not in the select list"
                    )
            plan = Sort(plan, tuple(stmt.order_by))
        if stmt.limit is not None:
            plan = Limit(plan, stmt.limit)
        return plan

    # -- FROM / WHERE --------------------------------------------------------

    def _scan(self, table, needed, per_table, prunes) -> TableScan:
        columns = tuple(
            name for name in self._schemas[table].names if name in needed[table]
        )
        if not columns:
            # COUNT(*)-style queries reference no columns; scan one anyway
            # so row counts survive.
            columns = (self._schemas[table].names[0],)
        predicate = None
        if per_table[table]:
            conjuncts = per_table[table]
            predicate = and_(*conjuncts) if len(conjuncts) > 1 else conjuncts[0]
        return TableScan(
            table, columns, predicate=predicate, prune=tuple(prunes[table])
        )

    def _join(self, plan, spec: JoinSpec, needed, per_table, prunes, tables) -> Plan:
        right = self._scan(spec.table, needed, per_table, prunes)
        left_keys = []
        right_keys = []
        for a, b in zip(spec.left_keys, spec.right_keys):
            a_table = self._resolve_owner(a, tables)
            b_table = self._resolve_owner(b, tables)
            if a_table == spec.table and b_table != spec.table:
                a, b = b, a
            left_keys.append(a.name)
            right_keys.append(b.name)
        return Join(plan, right, tuple(left_keys), tuple(right_keys))

    # -- SELECT list / aggregation ----------------------------------------------

    def _expand_star(self, stmt, tables):
        items = []
        for item in stmt.items:
            if isinstance(item.expr, SColumn) and item.expr.name == "*":
                for table in tables:
                    for name in self._schemas[table].names:
                        items.append(type(item)(expr=SColumn(name), alias=None))
            else:
                items.append(item)
        return items

    def _select_outputs(self, stmt, items, plan, tables):
        has_aggregates = any(_contains_aggregate(i.expr) for i in items) or (
            stmt.having is not None
        )
        if stmt.group_by or has_aggregates:
            return self._aggregate_outputs(stmt, items, plan, tables)
        outputs: Dict[str, Expr] = {}
        for item in items:
            name = item.alias or _default_name(item.expr)
            if name in outputs:
                raise SqlSyntaxError(f"duplicate output column {name!r}")
            outputs[name] = self._bind_expr(item.expr, tables)
        return Project(plan, outputs), list(outputs)

    def _aggregate_outputs(self, stmt, items, plan, tables):
        group_keys = []
        for column in stmt.group_by:
            self._resolve_owner(column, tables)
            group_keys.append(column.name)
        aggs: Dict[str, Tuple[str, Optional[Expr]]] = {}
        output_names: List[str] = []
        post_outputs: Dict[str, Expr] = {}
        needs_post = False
        for item in items:
            name = item.alias or _default_name(item.expr)
            output_names.append(name)
            if isinstance(item.expr, SColumn):
                if item.expr.name not in group_keys:
                    raise SqlSyntaxError(
                        f"column {item.expr.name!r} must appear in GROUP BY"
                    )
                post_outputs[name] = Col(item.expr.name)
                if name != item.expr.name:
                    needs_post = True
                continue
            if isinstance(item.expr, SFunc) and item.expr.name in _AGG_MAP | {
                "COUNT": "count"
            }:
                aggs[name] = self._bind_aggregate(item.expr, tables)
                post_outputs[name] = Col(name)
                continue
            # An expression over aggregates/keys: lower the aggregates it
            # contains, then compute the expression in a post-projection.
            rewritten = self._lower_nested_aggregates(item.expr, aggs, tables)
            post_outputs[name] = self._bind_expr(rewritten, tables, aggs_ok=True)
            needs_post = True
        if not aggs and not group_keys:
            raise SqlSyntaxError("GROUP BY query without aggregates or keys")
        plan = Aggregate(plan, tuple(group_keys), aggs)
        if stmt.having is not None:
            having = self._bind_expr(
                self._lower_nested_aggregates(stmt.having, aggs, tables),
                tables,
                aggs_ok=True,
            )
            plan = Filter(plan, having)
        if needs_post or set(post_outputs) != set(group_keys) | set(aggs):
            plan = Project(plan, post_outputs)
        return plan, output_names

    def _bind_aggregate(self, func: SFunc, tables):
        if func.name == "COUNT":
            if func.star or not func.args:
                return ("count", None)
            if func.distinct:
                return ("count_distinct", self._bind_expr(func.args[0], tables))
            return ("count", None)  # no NULLs in this engine
        if func.distinct:
            raise SqlSyntaxError(f"DISTINCT is only supported inside COUNT")
        return (_AGG_MAP[func.name], self._bind_expr(func.args[0], tables))

    def _lower_nested_aggregates(self, expr, aggs, tables):
        """Replace aggregate calls inside an expression with references to
        synthesized aggregate outputs (added to ``aggs``)."""
        if isinstance(expr, SFunc) and expr.name in set(_AGG_MAP) | {"COUNT"}:
            name = f"__agg{len(aggs)}__"
            for existing, spec in aggs.items():
                if spec == self._bind_aggregate(expr, tables):
                    name = existing
                    break
            else:
                aggs[name] = self._bind_aggregate(expr, tables)
            return SColumn(name)
        if isinstance(expr, SBin):
            return SBin(
                expr.op,
                self._lower_nested_aggregates(expr.left, aggs, tables),
                self._lower_nested_aggregates(expr.right, aggs, tables),
            )
        if isinstance(expr, SBool):
            return SBool(
                expr.op,
                tuple(
                    self._lower_nested_aggregates(a, aggs, tables)
                    for a in expr.args
                ),
            )
        if isinstance(expr, SNot):
            return SNot(self._lower_nested_aggregates(expr.arg, aggs, tables))
        return expr

    # -- name resolution -------------------------------------------------------

    def _resolve_owner(self, column: SColumn, tables: Sequence[str]) -> str:
        owners = [
            t for t in self._column_owner.get(column.name, []) if t in tables
        ]
        if column.qualifier is not None:
            if column.qualifier not in tables:
                raise SqlSyntaxError(f"unknown table qualifier {column.qualifier!r}")
            if column.qualifier not in owners:
                raise SqlSyntaxError(
                    f"table {column.qualifier!r} has no column {column.name!r}"
                )
            return column.qualifier
        if not owners:
            raise SqlSyntaxError(f"unknown column {column.name!r}")
        if len(owners) > 1:
            raise SqlSyntaxError(
                f"ambiguous column {column.name!r} (in {owners}); qualify it"
            )
        return owners[0]

    def _tables_of(self, expr, tables) -> set:
        out = set()

        def walk(node):
            if isinstance(node, SColumn):
                out.add(self._resolve_owner(node, tables))
            elif isinstance(node, SBin):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, SBool):
                for a in node.args:
                    walk(a)
            elif isinstance(node, SNot):
                walk(node.arg)
            elif isinstance(node, (SLike, SIn)):
                walk(node.arg)
            elif isinstance(node, SBetween):
                walk(node.arg)
                walk(node.low)
                walk(node.high)
            elif isinstance(node, SCase):
                walk(node.cond)
                walk(node.then)
                walk(node.orelse)
            elif isinstance(node, SFunc):
                for a in node.args:
                    walk(a)

        walk(expr)
        return out

    def _columns_needed(self, stmt, items, tables):
        needed = {t: set() for t in tables}

        def note(column: SColumn):
            if column.name == "*":
                return
            needed[self._resolve_owner(column, tables)].add(column.name)

        def walk(node):
            if isinstance(node, SColumn):
                note(node)
            elif isinstance(node, SBin):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, SBool):
                for a in node.args:
                    walk(a)
            elif isinstance(node, SNot):
                walk(node.arg)
            elif isinstance(node, (SLike, SIn)):
                walk(node.arg)
            elif isinstance(node, SBetween):
                walk(node.arg)
                walk(node.low)
                walk(node.high)
            elif isinstance(node, SCase):
                walk(node.cond)
                walk(node.then)
                walk(node.orelse)
            elif isinstance(node, SFunc):
                for a in node.args:
                    walk(a)

        for item in items:
            walk(item.expr)
        if stmt.where is not None:
            walk(stmt.where)
        if stmt.having is not None:
            walk(stmt.having)
        for column in stmt.group_by:
            note(column)
        for join in stmt.joins:
            for column in list(join.left_keys) + list(join.right_keys):
                note(column)
        return needed

    # -- expression lowering ------------------------------------------------------

    def _bind_expr(self, expr, tables, aggs_ok: bool = False) -> Expr:
        if isinstance(expr, SColumn):
            if not aggs_ok:
                self._resolve_owner(expr, tables)
            return Col(expr.name)
        if isinstance(expr, SLiteral):
            if type(expr.value) is int:
                _int64(expr.value, str(expr.value))
            return Lit(expr.value)
        if isinstance(expr, SBin):
            folded = _folded(expr)
            if folded is not None:
                return Lit(folded)
            if expr.op in _COMPARISON_OPS and not aggs_ok:
                self._check_comparable(expr.left, expr.right, tables)
            return BinOp(
                expr.op,
                self._bind_expr(expr.left, tables, aggs_ok),
                self._bind_expr(expr.right, tables, aggs_ok),
            )
        if isinstance(expr, SBool):
            return BoolOp(
                expr.op,
                tuple(self._bind_expr(a, tables, aggs_ok) for a in expr.args),
            )
        if isinstance(expr, SNot):
            return Not(self._bind_expr(expr.arg, tables, aggs_ok))
        if isinstance(expr, SLike):
            like = Like(self._bind_expr(expr.arg, tables, aggs_ok), expr.pattern)
            return Not(like) if expr.negated else like
        if isinstance(expr, SIn):
            for value in expr.values:
                if type(value) is int:
                    _int64(value, str(value))
            if not aggs_ok:
                for value in expr.values:
                    self._check_comparable(expr.arg, SLiteral(value), tables)
            inlist = InList(self._bind_expr(expr.arg, tables, aggs_ok), expr.values)
            return Not(inlist) if expr.negated else inlist
        if isinstance(expr, SBetween):
            if not aggs_ok:
                self._check_comparable(expr.arg, expr.low, tables)
                self._check_comparable(expr.arg, expr.high, tables)
            arg = self._bind_expr(expr.arg, tables, aggs_ok)
            return and_(
                BinOp(">=", arg, self._bind_expr(expr.low, tables, aggs_ok)),
                BinOp("<=", arg, self._bind_expr(expr.high, tables, aggs_ok)),
            )
        if isinstance(expr, SCase):
            return Case(
                self._bind_expr(expr.cond, tables, aggs_ok),
                self._bind_expr(expr.then, tables, aggs_ok),
                self._bind_expr(expr.orelse, tables, aggs_ok),
            )
        if isinstance(expr, SFunc):
            if expr.name == "YEAR":
                return Year(self._bind_expr(expr.args[0], tables, aggs_ok))
            if expr.name == "SUBSTRING":
                start = expr.args[1]
                length = expr.args[2]
                if not (isinstance(start, SLiteral) and isinstance(length, SLiteral)):
                    raise SqlSyntaxError("SUBSTRING needs literal start/length")
                return Substr(
                    self._bind_expr(expr.args[0], tables, aggs_ok),
                    int(start.value),
                    int(length.value),
                )
            raise SqlSyntaxError(
                f"aggregate {expr.name} not allowed in this position"
            )
        raise PlanError(f"cannot bind expression {expr!r}")

    def _check_comparable(self, left, right, tables) -> None:
        """Reject comparing a string with a number (or any other non-string
        value), whatever the two sides are: no row can be ordered against
        it, and numpy would fail or compare nothing at run time."""
        sides = (self._typed(left, tables), self._typed(right, tables))
        if None in sides or sides[0][0] == sides[1][0]:
            return
        raise PlanError(f"cannot compare {sides[0][1]} with {sides[1][1]}")

    def _typed(self, expr, tables) -> Optional[Tuple[bool, str]]:
        """``(yields strings, how a type error names it)`` for ``expr``;
        None where the binder does not type it (NULL, a nested comparison)."""
        if isinstance(expr, SColumn):
            owner = self._resolve_owner(expr, tables)
            type_ = self._schemas[owner].field(expr.name).type
            return type_ == "string", f"{type_} column {expr.name!r}"
        if isinstance(expr, SLiteral):
            if not isinstance(expr.value, (str, int, float)):
                return None
            return isinstance(expr.value, str), f"literal {expr.value!r}"
        if isinstance(expr, SBin) and expr.op not in _COMPARISON_OPS:
            return False, f"arithmetic ({expr.op})"
        if isinstance(expr, SFunc) and expr.name in ("YEAR", "SUBSTRING"):
            return expr.name == "SUBSTRING", expr.name
        if isinstance(expr, SCase):
            return self._typed(expr.then, tables) or self._typed(expr.orelse, tables)
        return None

    def prunes_of(self, where, tables) -> Dict[str, List[Tuple[str, str, Any]]]:
        """The zone-map conjuncts of a WHERE clause (None for none), per
        table: the ``(column, op, literal)`` triples of each top-level AND
        conjunct that names the columns of one table only."""
        prunes: Dict[str, List[Tuple[str, str, Any]]] = {t: [] for t in tables}
        for conjunct in _flatten_and(where):
            owners = self._tables_of(conjunct, tables)
            if len(owners) == 1:
                prunes[next(iter(owners))].extend(self._prune_of(conjunct, tables))
        return prunes

    def _prune_of(self, conjunct, tables) -> List[Tuple[str, str, Any]]:
        """Extract zone-map conjuncts (col op literal) from a predicate."""
        if isinstance(conjunct, SBin) and conjunct.op in _PRUNABLE_OPS:
            left, right = conjunct.left, conjunct.right
            if isinstance(left, SColumn) and isinstance(right, SLiteral):
                return [(left.name, conjunct.op, right.value)]
            if isinstance(left, SLiteral) and isinstance(right, SColumn):
                flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}
                return [(right.name, flipped[conjunct.op], left.value)]
        if isinstance(conjunct, SBetween) and isinstance(conjunct.arg, SColumn):
            out = []
            if isinstance(conjunct.low, SLiteral):
                out.append((conjunct.arg.name, ">=", conjunct.low.value))
            if isinstance(conjunct.high, SLiteral):
                out.append((conjunct.arg.name, "<=", conjunct.high.value))
            return out
        return []


def _folded(expr) -> Optional[int]:
    """The value of integer literal arithmetic, computed in Python ints
    (None if ``expr`` is anything else); a result outside ``int64``
    raises :class:`PlanError` (see the module doc)."""
    if isinstance(expr, SLiteral):
        return expr.value if type(expr.value) is int else None
    if not (isinstance(expr, SBin) and expr.op in _FOLDED_OPS):
        return None
    left, right = _folded(expr.left), _folded(expr.right)
    if left is None or right is None:
        return None
    return _int64(_FOLDED_OPS[expr.op](left, right), f"{left} {expr.op} {right}")


def _int64(value: int, what: str) -> int:
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise PlanError(f"integer literal {what} is outside int64")
    return value


def _flatten_and(expr) -> List:
    if expr is None:
        return []
    if isinstance(expr, SBool) and expr.op == "and":
        out = []
        for arg in expr.args:
            out.extend(_flatten_and(arg))
        return out
    return [expr]


def _contains_aggregate(expr) -> bool:
    if isinstance(expr, SFunc) and expr.name in {"SUM", "MIN", "MAX", "AVG", "COUNT"}:
        return True
    if isinstance(expr, SBin):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, SBool):
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, SNot):
        return _contains_aggregate(expr.arg)
    if isinstance(expr, SCase):
        return any(
            _contains_aggregate(e) for e in (expr.cond, expr.then, expr.orelse)
        )
    return False


def _default_name(expr) -> str:
    if isinstance(expr, SColumn):
        return expr.name
    if isinstance(expr, SFunc):
        if expr.star or not expr.args:
            return expr.name.lower()
        first = expr.args[0]
        if isinstance(first, SColumn):
            return f"{expr.name.lower()}_{first.name}"
        return expr.name.lower()
    return "expr"
