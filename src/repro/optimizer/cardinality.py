"""Cardinality estimation: the one estimator, with or without statistics.

:func:`estimate_with_stats` walks a plan once and prices every node from
collected :class:`~repro.optimizer.statistics.TableStatistics` wherever
they exist, falling back to the named :class:`DefaultSelectivity` table
per *table* (not per query) when they don't — so
``estimate_with_stats(plan, scan_rows, {})`` is the stats-free default
every deployment starts from.  Every estimate records its provenance —
``stats`` or ``default`` — so EXPLAIN can show which path produced it.

Formulas (System-R lineage, see ``docs/OPTIMIZER.md``):

* scan: ``rows × Π sel(prune) × sel(predicate) × feedback_factor``
* join: ``|L| × |R| / max(NDV(l_key), NDV(r_key))`` per key pair
* group by: ``Π NDV(key)`` capped at the input cardinality
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import PlanError
from repro.engine.expressions import BinOp, BoolOp, Col, InList, Lit, Not
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
from repro.optimizer.statistics import ColumnStatistics, TableStatistics


@dataclass(frozen=True)
class DefaultSelectivity:
    """Textbook fallback selectivities, used only without collected stats.

    The classic System R defaults: a predicate keeps one third of its
    input, each zone-map pruning conjunct keeps one half, a join carries
    its larger input (a semi/anti join at most its left input), a
    grouped aggregate emits ``sqrt(input)`` groups.  Histogram/NDV-derived
    numbers replace every one of these once ``ANALYZE`` has run on the
    tables involved; when they do, the per-node provenance map records
    ``stats`` instead of ``default`` so EXPLAIN shows which path
    produced each estimate.
    """

    #: Fraction of input rows assumed to survive a predicate.
    predicate: float = 1.0 / 3.0
    #: Fraction of a scan's rows assumed to survive one pruning conjunct.
    prune: float = 0.5

    def group_count(self, input_rows: float) -> float:
        """Assumed distinct-group count of a grouped aggregate."""
        return math.ceil(math.sqrt(input_rows))


#: The shared default-selectivity table.
DEFAULT_SELECTIVITY = DefaultSelectivity()

#: Estimate-provenance tags recorded per plan node: ``default`` means a
#: :class:`DefaultSelectivity` guess, ``stats`` means collected ANALYZE
#: statistics drove the number.
PROVENANCE_DEFAULT = "default"
PROVENANCE_STATS = "stats"


def clamp_estimate(value: float) -> int:
    """Round an estimate; a nonzero fraction means "some rows", never zero."""
    if value >= 1.0:
        return int(round(value))
    return 1 if value > 0 else 0


#: Maps every column name to its table's statistics (TPC-H column names
#: are globally unique, which the binder already relies on).
ColumnMap = Dict[str, Tuple[TableStatistics, ColumnStatistics]]


def column_map(stats_by_table: Dict[str, TableStatistics]) -> ColumnMap:
    """Index per-column statistics across all tables of a query."""
    out: ColumnMap = {}
    for table in sorted(stats_by_table):
        stats = stats_by_table[table]
        for name, col in stats.columns.items():
            out[name] = (stats, col)
    return out


def conjunct_selectivity(
    stats: TableStatistics,
    column: str,
    op: str,
    literal: Any,
    defaults: DefaultSelectivity,
) -> float:
    """Selectivity of one ``column <op> literal`` pruning conjunct."""
    col = stats.column(column)
    if col is None:
        return defaults.predicate
    return col.selectivity(op, literal)


def predicate_selectivity(
    columns: ColumnMap, expr: Any, defaults: DefaultSelectivity
) -> float:
    """Selectivity of a residual predicate tree.

    Conjuncts multiply (independence), disjuncts combine inclusion-
    exclusion style, and anything the statistics cannot price (LIKE,
    CASE, arithmetic over columns) falls back to the default predicate
    selectivity — conservative, never zero.
    """
    if isinstance(expr, BoolOp):
        parts = [
            predicate_selectivity(columns, arg, defaults) for arg in expr.args
        ]
        if expr.op == "and":
            sel = 1.0
            for part in parts:
                sel *= part
            return sel
        sel = 1.0
        for part in parts:
            sel *= 1.0 - part
        return 1.0 - sel
    if isinstance(expr, Not):
        return 1.0 - predicate_selectivity(columns, expr.arg, defaults)
    if isinstance(expr, BinOp):
        comparison = _column_literal(expr)
        if comparison is not None:
            column, op, literal = comparison
            entry = columns.get(column)
            if entry is not None:
                return entry[1].selectivity(op, literal)
        return defaults.predicate
    if isinstance(expr, InList):
        if isinstance(expr.arg, Col):
            entry = columns.get(expr.arg.name)
            if entry is not None and entry[1].ndv > 0:
                return min(len(expr.values) / entry[1].ndv, 1.0)
        return defaults.predicate
    return defaults.predicate


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _column_literal(expr: BinOp) -> "Tuple[str, str, Any] | None":
    """Normalize ``col <op> lit`` / ``lit <op> col`` comparisons."""
    if expr.op not in ("==", "!=", "<", "<=", ">", ">="):
        return None
    if isinstance(expr.left, Col) and isinstance(expr.right, Lit):
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.left, Lit) and isinstance(expr.right, Col):
        op = _FLIPPED.get(expr.op, expr.op)
        return expr.right.name, op, expr.left.value
    return None


def scan_estimate(
    scan: TableScan,
    stats: TableStatistics,
    defaults: DefaultSelectivity = DEFAULT_SELECTIVITY,
) -> float:
    """Stats-based output estimate of one scan (pruning + residual)."""
    value = float(stats.row_count)
    for column, op, literal in scan.prune:
        value *= conjunct_selectivity(stats, column, op, literal, defaults)
    if scan.predicate is not None:
        columns = column_map({scan.table: stats})
        value *= predicate_selectivity(columns, scan.predicate, defaults)
    value *= stats.feedback_factor
    if stats.row_count > 0:
        value = max(value, 1.0)
    return value


def join_estimate(
    left_rows: float,
    right_rows: float,
    left_keys: Tuple[str, ...],
    right_keys: Tuple[str, ...],
    columns: ColumnMap,
) -> float:
    """Equi-join output estimate from key NDVs.

    Falls back to ``max(|L|, |R|)`` (the default table's guess) for key
    pairs with no collected NDV on either side.
    """
    cross = left_rows * right_rows
    value = cross
    priced = False
    for l_key, r_key in zip(left_keys, right_keys):
        ndvs = []
        for key in (l_key, r_key):
            entry = columns.get(key)
            if entry is not None and entry[1].ndv > 0:
                ndvs.append(entry[1].ndv)
        if ndvs:
            value /= max(ndvs)
            priced = True
    if not priced:
        return max(left_rows, right_rows)
    return min(value, cross)


def estimate_with_stats(
    plan: Plan,
    scan_rows: Dict[int, float],
    stats_by_table: Dict[str, TableStatistics],
    defaults: DefaultSelectivity = DEFAULT_SELECTIVITY,
    provenance: Optional[Dict[int, str]] = None,
) -> Dict[int, int]:
    """Per-node output estimates, stats-driven where stats exist.

    ``scan_rows`` supplies the default-path base cardinality per scan id:
    the table's live row count (file rows minus deletion-vector
    cardinalities), the statistic the snapshot manifest maintains
    without any ANALYZE.  Tables present in ``stats_by_table`` use their
    collected row counts, histograms and feedback factors instead.
    ``provenance`` (node id → ``stats`` / ``default``) records which
    path priced each node.  Without statistics the point is not
    precision — it is producing an estimate the query store can compare
    against actuals, turning misestimates into recorded feedback.
    """
    columns = column_map(stats_by_table)
    estimates: Dict[int, int] = {}

    def mark(node: Plan, origin: str) -> None:
        if provenance is not None:
            provenance[id(node)] = origin

    def walk(node: Plan) -> float:
        if isinstance(node, TableScan):
            stats = stats_by_table.get(node.table)
            if stats is not None:
                value = scan_estimate(node, stats, defaults)
                mark(node, PROVENANCE_STATS)
            else:
                value = scan_rows.get(id(node), 0.0)
                for _ in node.prune:
                    value *= defaults.prune
                if node.predicate is not None:
                    value *= defaults.predicate
                mark(node, PROVENANCE_DEFAULT)
        elif isinstance(node, Filter):
            child = walk(node.child)
            known = _predicate_priced(columns, node.predicate)
            value = child * predicate_selectivity(
                columns, node.predicate, defaults
            )
            mark(node, PROVENANCE_STATS if known else PROVENANCE_DEFAULT)
        elif isinstance(node, Project):
            value = walk(node.child)
            mark(node, provenance_of(provenance, node.child))
        elif isinstance(node, Join):
            left = walk(node.left)
            right = walk(node.right)
            priced = any(
                key in columns for key in node.left_keys + node.right_keys
            )
            if priced:
                value = join_estimate(
                    left, right, node.left_keys, node.right_keys, columns
                )
                mark(node, PROVENANCE_STATS)
            else:
                value = max(left, right)
                mark(node, PROVENANCE_DEFAULT)
            if node.how in ("left-semi", "left-anti"):
                value = min(value, left)
        elif isinstance(node, Aggregate):
            child = walk(node.child)
            if not node.group_keys:
                value = 1.0
                mark(node, PROVENANCE_STATS)
            else:
                groups = 1.0
                priced = True
                for key in node.group_keys:
                    entry = columns.get(key)
                    if entry is None or entry[1].ndv <= 0:
                        priced = False
                        break
                    groups *= entry[1].ndv
                if priced:
                    value = min(groups, child)
                    mark(node, PROVENANCE_STATS)
                else:
                    value = defaults.group_count(child)
                    mark(node, PROVENANCE_DEFAULT)
        elif isinstance(node, Sort):
            value = walk(node.child)
            mark(node, provenance_of(provenance, node.child))
        elif isinstance(node, Limit):
            value = min(walk(node.child), float(node.count))
            mark(node, provenance_of(provenance, node.child))
        else:
            raise PlanError(f"unknown plan node {node!r}")
        estimates[id(node)] = clamp_estimate(value)
        return value

    walk(plan)
    return estimates


def provenance_of(provenance: Optional[Dict[int, str]], node: Plan) -> str:
    """Provenance recorded for ``node`` (default when none recorded)."""
    if provenance is None:
        return PROVENANCE_DEFAULT
    return provenance.get(id(node), PROVENANCE_DEFAULT)


def _predicate_priced(columns: ColumnMap, expr: Any) -> bool:
    """Whether any comparison in ``expr`` touches a column with stats."""
    if isinstance(expr, BoolOp):
        return any(_predicate_priced(columns, arg) for arg in expr.args)
    if isinstance(expr, Not):
        return _predicate_priced(columns, expr.arg)
    if isinstance(expr, BinOp):
        comparison = _column_literal(expr)
        return comparison is not None and comparison[0] in columns
    if isinstance(expr, InList):
        return isinstance(expr.arg, Col) and expr.arg.name in columns
    return False
