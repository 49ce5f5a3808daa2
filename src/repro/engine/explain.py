"""EXPLAIN and EXPLAIN ANALYZE: plans as readable, annotated text.

``explain(plan)`` returns the operator tree, one node per line, with the
scans' pushed-down projections, predicates and pruning conjuncts — the
compiled-plan view the SQL FE would show for a statement.

``explain_analyze(plan, scan_source)`` *executes* the plan through
:func:`repro.engine.executor.execute_plan` with an observer that records,
per operator, rows produced and simulated time; scans additionally
report file- and row-group-level pruning counts when the scan source
provides them (the FE read path does).  The resulting
:class:`PlanProfile` carries the output batch and the per-operator
stats, and renders the annotated text on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import PlanError
from repro.engine.batch import Batch, num_rows
from repro.engine.executor import execute_plan

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
    children,
    preorder,
)


def format_expr(expr: Expr) -> str:
    """One-line SQL-ish rendering of an expression tree."""
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, Lit):
        return repr(expr.value)
    if isinstance(expr, BinOp):
        op = "=" if expr.op == "==" else ("<>" if expr.op == "!=" else expr.op)
        return f"({format_expr(expr.left)} {op} {format_expr(expr.right)})"
    if isinstance(expr, BoolOp):
        joiner = f" {expr.op.upper()} "
        return "(" + joiner.join(format_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Not):
        return f"NOT {format_expr(expr.arg)}"
    if isinstance(expr, Like):
        return f"{format_expr(expr.arg)} LIKE {expr.pattern!r}"
    if isinstance(expr, InList):
        values = ", ".join(repr(v) for v in expr.values)
        return f"{format_expr(expr.arg)} IN ({values})"
    if isinstance(expr, Case):
        return (
            f"CASE WHEN {format_expr(expr.cond)} THEN {format_expr(expr.then)} "
            f"ELSE {format_expr(expr.orelse)} END"
        )
    if isinstance(expr, Year):
        return f"YEAR({format_expr(expr.arg)})"
    if isinstance(expr, Substr):
        return f"SUBSTRING({format_expr(expr.arg)}, {expr.start}, {expr.length})"
    raise TypeError(f"unknown expression {expr!r}")


def explain(plan: Plan) -> str:
    """Multi-line operator tree for a plan."""
    lines: List[str] = []
    _walk(plan, 0, lines)
    return "\n".join(lines)


@dataclass
class OperatorStats:
    """Measured execution stats of one plan operator."""

    #: Rows the operator produced.
    rows: int
    #: Simulated seconds attributed to the operator (measured for scans,
    #: cost-model estimated for root-side operators; None if unknown).
    sim_time_s: Optional[float] = None
    #: Scan-only extras: files/files_pruned, row_groups/row_groups_pruned,
    #: cells — whatever the scan source reported.
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PlanProfile:
    """One observed execution of a plan: output plus per-operator stats.

    What the query store captures on *every* execution and what EXPLAIN
    ANALYZE shows; the annotated plan rendering — the expensive,
    human-facing half — happens only when :attr:`text` is read.
    """

    batch: Batch
    #: The physical plan actually executed (after cost-based optimizer
    #: rewrites).
    plan: Plan
    #: Per-operator stats keyed by ``id(plan_node)``.
    stats: Dict[int, OperatorStats]
    #: Planner-estimated output rows keyed by ``id(plan_node)`` (empty
    #: when the caller supplied no estimates).
    estimates: Dict[int, int] = field(default_factory=dict)
    #: Estimate provenance (``stats`` / ``default``) per node id.
    provenance: Dict[int, str] = field(default_factory=dict)
    #: Optimizer cost units (cumulative per subtree) per node id.
    costs: Dict[int, float] = field(default_factory=dict)

    def stats_for(self, node: Plan) -> OperatorStats:
        """The stats recorded for one plan node."""
        return self.stats[id(node)]

    @property
    def text(self) -> str:
        """The operator tree annotated with this run's observations."""
        lines: List[str] = []
        _walk(
            self.plan,
            0,
            lines,
            annotate=lambda node: _annotation(
                self.stats.get(id(node)),
                self.estimates.get(id(node)),
                self.provenance.get(id(node)),
                self.costs.get(id(node)),
            ),
        )
        return "\n".join(lines)


def misestimate_ratio(est_rows: float, actual_rows: float) -> float:
    """Symmetric cardinality-misestimate factor, always >= 1.

    Both sides are floored at one row so empty results and zero
    estimates stay finite: 1.0 means exact to within a row, 10.0 means
    an order of magnitude off in either direction.
    """
    est = max(float(est_rows), 1.0)
    actual = max(float(actual_rows), 1.0)
    return max(actual / est, est / actual)


#: The one join's display name (plan text, operator labels, DMV rows).
#: Query-store plan hashes are taken over this text.
JOIN_LABEL = "HashJoin"


def operator_labels(plan: Plan) -> List[Tuple[int, Plan, str]]:
    """Preorder ``(operator_id, node, label)`` triples for a plan.

    The preorder index is the stable ``operator_id`` the query store
    keys per-operator aggregates on — same plan shape, same ids.
    """
    labeled: List[Tuple[int, Plan, str]] = []
    for index, node in enumerate(preorder(plan)):
        if isinstance(node, TableScan):
            label = f"Scan {node.table}"
        elif isinstance(node, Filter):
            label = "Filter"
        elif isinstance(node, Project):
            label = "Project"
        elif isinstance(node, Join):
            label = f"{JOIN_LABEL}[{node.how}]"
        elif isinstance(node, Aggregate):
            label = "Aggregate"
        elif isinstance(node, Sort):
            label = "Sort"
        elif isinstance(node, Limit):
            label = "Limit"
        else:
            raise PlanError(f"unknown plan node {node!r}")
        labeled.append((index, node, label))
    return labeled


def operator_summaries(
    plan: Plan,
    stats: Dict[int, OperatorStats],
    estimates: Optional[Dict[int, int]] = None,
) -> List[Dict[str, Any]]:
    """Flat per-operator records (est vs actual rows, time, pruning).

    The cardinality-feedback rows the query store folds per fingerprint
    and serves back through ``sys.dm_exec_operator_stats``.
    """
    estimates = estimates or {}
    records: List[Dict[str, Any]] = []
    for operator_id, node, label in operator_labels(plan):
        node_stats = stats.get(id(node))
        details = node_stats.details if node_stats is not None else {}
        records.append(
            {
                "operator_id": operator_id,
                "operator": label,
                "est_rows": estimates.get(id(node), 0),
                "actual_rows": node_stats.rows if node_stats is not None else 0,
                "sim_time_s": (
                    node_stats.sim_time_s if node_stats is not None else None
                ),
                "files": details.get("files", 0),
                "files_pruned": details.get("files_pruned", 0),
                "row_groups": details.get("row_groups", 0),
                "row_groups_pruned": details.get("row_groups_pruned", 0),
            }
        )
    return records


def explain_analyze(
    plan: Plan,
    scan_source: Callable[[TableScan], Batch],
    *,
    cost_model=None,
    scan_details: Optional[Dict[int, Dict[str, Any]]] = None,
    estimates: Optional[Dict[int, int]] = None,
    provenance: Optional[Dict[int, str]] = None,
    costs: Optional[Dict[int, float]] = None,
) -> PlanProfile:
    """Execute ``plan`` and record each operator's observed stats.

    ``scan_source`` resolves scans exactly as in
    :func:`repro.engine.executor.execute_plan`, which is what runs the
    plan.  Scan timing and pruning counters come from
    ``scan_details[id(scan)]`` when the caller pre-measured them (the FE
    read path).  Root-side operators are costed with ``cost_model`` over
    their input rows — the same first-order model the FE charges the
    clock with.  ``estimates`` (from
    :func:`repro.optimizer.cardinality.estimate_with_stats`) adds an
    ``est=``/``ratio=`` column per operator to the rendered text so
    cardinality misestimates are visible interactively.  ``provenance``
    (node id → ``stats`` / ``default``) and ``costs`` (node id →
    optimizer cost units) add ``stats=`` and ``cost=`` columns when the
    cost-based optimizer supplied them.
    """
    scan_details = scan_details or {}
    stats: Dict[int, OperatorStats] = {}

    def observe(node: Plan, result: Batch, inputs: List[Batch]) -> None:
        details = dict(scan_details.get(id(node), {}))
        sim_time_s = details.pop("sim_time_s", None)
        if inputs and cost_model is not None:
            input_rows = sum(num_rows(child) for child in inputs)
            sim_time_s = cost_model.task_duration(input_rows, 0, 0)
        stats[id(node)] = OperatorStats(
            rows=num_rows(result), sim_time_s=sim_time_s, details=details
        )

    return PlanProfile(
        batch=execute_plan(plan, scan_source, observe),
        plan=plan,
        stats=stats,
        estimates=estimates or {},
        provenance=provenance or {},
        costs=costs or {},
    )


def _annotation(
    node_stats: Optional[OperatorStats],
    est_rows: Optional[int] = None,
    provenance: Optional[str] = None,
    cost: Optional[float] = None,
) -> str:
    if node_stats is None:
        return ""
    parts = [f"rows={node_stats.rows}"]
    if est_rows is not None:
        parts.append(f"est={est_rows}")
        parts.append(f"ratio={misestimate_ratio(est_rows, node_stats.rows):.2f}x")
    if provenance is not None:
        parts.append(f"stats={provenance}")
    if cost is not None:
        parts.append(f"cost={cost:.1f}")
    if node_stats.sim_time_s is not None:
        parts.append(f"time={node_stats.sim_time_s:.3f}s")
    details = node_stats.details
    if "files" in details:
        parts.append(
            f"files={details['files'] - details.get('files_pruned', 0)}"
            f"/{details['files']}"
        )
    if details.get("files_pruned"):
        parts.append(f"files_pruned={details['files_pruned']}")
    if "row_groups" in details:
        parts.append(f"row_groups={details['row_groups']}")
    if details.get("row_groups_pruned"):
        parts.append(f"row_groups_pruned={details['row_groups_pruned']}")
    if "cells" in details:
        parts.append(f"cells={details['cells']}")
    return "  (" + " ".join(parts) + ")"


def _walk(
    plan: Plan,
    depth: int,
    lines: List[str],
    annotate: Optional[Callable[[Plan], str]] = None,
) -> None:
    suffix = annotate(plan) if annotate is not None else ""
    lines.append("  " * depth + _describe(plan) + suffix)
    for child in children(plan):
        _walk(child, depth + 1, lines, annotate)


def _describe(plan: Plan) -> str:
    """One operator's line of plan text (no indentation, no annotation)."""
    if isinstance(plan, TableScan):
        line = f"Scan {plan.table} [{', '.join(plan.columns)}]"
        if plan.predicate is not None:
            line += f" filter={format_expr(plan.predicate)}"
        if plan.prune:
            conjuncts = " AND ".join(f"{c} {op} {v!r}" for c, op, v in plan.prune)
            line += f" prune=({conjuncts})"
        return line
    if isinstance(plan, Filter):
        return f"Filter {format_expr(plan.predicate)}"
    if isinstance(plan, Project):
        outputs = ", ".join(
            f"{name}={format_expr(expr)}" for name, expr in plan.outputs.items()
        )
        return f"Project [{outputs}]"
    if isinstance(plan, Join):
        keys = ", ".join(
            f"{l}={r}" for l, r in zip(plan.left_keys, plan.right_keys)
        )
        return f"{JOIN_LABEL}[{plan.how}] on ({keys})"
    if isinstance(plan, Aggregate):
        keys = ", ".join(plan.group_keys) if plan.group_keys else "<global>"
        aggs = ", ".join(
            f"{name}={func}({format_expr(expr) if expr is not None else '*'})"
            for name, (func, expr) in plan.aggs.items()
        )
        return f"Aggregate group=[{keys}] [{aggs}]"
    if isinstance(plan, Sort):
        keys = ", ".join(
            f"{column} {'ASC' if asc else 'DESC'}" for column, asc in plan.keys
        )
        return f"Sort [{keys}]"
    if isinstance(plan, Limit):
        return f"Limit {plan.count}"
    raise TypeError(f"unknown plan node {plan!r}")
