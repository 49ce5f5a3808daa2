"""Logical query plans.

Plans are small immutable trees built programmatically; the FE compiles
them once (Section 3.3's single-phase compilation) and the executor in
:mod:`repro.engine.executor` evaluates them over batches supplied by the
read path.  Scan nodes carry an optional pushed-down predicate of
``(column, op, literal)`` conjuncts used for row-group pruning at the
storage layer, in addition to the full residual predicate tree.

A :class:`Join` says what to join on and how (inner, semi, anti), never
with which algorithm: the engine has one equi-join
(:func:`repro.engine.operators.hash_join`) and the cost-based optimizer
in :mod:`repro.optimizer` only reorders joins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.common.errors import PlanError
from repro.engine.expressions import Expr
from repro.engine.operators import JOIN_TYPES, AggSpec


@dataclass(frozen=True)
class TableScan:
    """Scan a base table (with projection and pushdown)."""

    table: str
    columns: Tuple[str, ...]
    #: Residual predicate evaluated on scanned rows (may be None).
    predicate: Optional[Expr] = None
    #: Simple conjuncts for zone-map pruning: (column, op, literal).
    prune: Tuple[Tuple[str, str, Any], ...] = ()


@dataclass(frozen=True)
class Filter:
    """Row filter."""

    child: "Plan"
    predicate: Expr


@dataclass(frozen=True)
class Project:
    """Column projection/computation.  ``outputs`` maps name → expression."""

    child: "Plan"
    outputs: Dict[str, Expr]


@dataclass(frozen=True)
class Join:
    """Equi-join of two subplans; ``how`` is one of
    :data:`repro.engine.operators.JOIN_TYPES`."""

    left: "Plan"
    right: "Plan"
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    how: str = "inner"

    def __post_init__(self) -> None:
        if self.how not in JOIN_TYPES:
            raise PlanError(f"unsupported join type {self.how!r}")
        if len(self.left_keys) != len(self.right_keys):
            raise PlanError("join key lists must have equal length")


@dataclass(frozen=True)
class Aggregate:
    """Grouped aggregation."""

    child: "Plan"
    group_keys: Tuple[str, ...]
    aggs: AggSpec


@dataclass(frozen=True)
class Sort:
    """Order by ``(column, ascending)`` keys."""

    child: "Plan"
    keys: Tuple[Tuple[str, bool], ...]


@dataclass(frozen=True)
class Limit:
    """Top-N."""

    child: "Plan"
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PlanError(f"LIMIT must not be negative, got {self.count}")


Plan = Union[TableScan, Filter, Project, Join, Aggregate, Sort, Limit]

#: Plan nodes with exactly one ``child`` subplan.
_UNARY_NODES = (Filter, Project, Aggregate, Sort, Limit)


def children(node: Plan) -> Tuple["Plan", ...]:
    """The direct subplans of ``node``, left to right.

    The one place that knows the tree's shape.  Raises
    :class:`PlanError` on an unknown node type instead of guessing a
    traversal — misattributing a scan would silently corrupt cardinality
    estimates and snapshot resolution downstream.
    """
    if isinstance(node, TableScan):
        return ()
    if isinstance(node, Join):
        return (node.left, node.right)
    if isinstance(node, _UNARY_NODES):
        return (node.child,)
    raise PlanError(f"unknown plan node {node!r}")


def map_children(node: Plan, fn: Callable[["Plan"], "Plan"]) -> Plan:
    """A copy of ``node`` with ``fn`` applied to each direct subplan.

    Scans have no subplans and are returned as they are.
    """
    subplans = children(node)
    if not subplans:
        return node
    if isinstance(node, Join):
        return replace(node, left=fn(node.left), right=fn(node.right))
    return replace(node, child=fn(node.child))


def preorder(plan: Plan) -> Iterator[Plan]:
    """Every node of ``plan``, parents before children, left to right."""
    yield plan
    for child in children(plan):
        yield from preorder(child)


def scans_of(plan: Plan) -> List[TableScan]:
    """All TableScan leaves of a plan, left-to-right."""
    return [node for node in preorder(plan) if isinstance(node, TableScan)]


def tables_of(plan: Plan) -> List[str]:
    """Distinct base tables referenced, in first-occurrence order.

    Inherits the loud-failure behavior of :func:`children` for unknown
    plan node types.
    """
    tables: List[str] = []
    for scan in scans_of(plan):
        if scan.table not in tables:
            tables.append(scan.table)
    return tables
