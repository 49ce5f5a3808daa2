"""Cost-based plan rewrites: transitivity and join reordering.

The pass is an identity transform unless *every* base table of the plan
has collected statistics — that invariant keeps stats-free deployments
byte-identical to the pre-optimizer engine.  With stats present it
applies, in order:

1. **Equality transitivity** — a pruning conjunct ``a.k == v`` on one
   side of an inner-join equivalence class implies ``b.k == v`` on every
   other member, so the conjunct is copied to their scans.  Pruning
   conjuncts only ever *skip* files/row groups proven not to match, so
   the copy is always safe for inner joins (non-matching survivors are
   dropped by the join itself).
2. **Greedy join reordering** — flatten left-deep chains of inner
   equi-joins over base scans, start from the smallest estimated leaf,
   and repeatedly attach the connected leaf minimizing the estimated
   join output.

Reordering changes row *order* (swapping a join's inputs does); SQL
result sets are unordered unless sorted, and the order chosen is fully
deterministic for a given catalog state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import OptimizerConfig
from repro.engine.planner import (
    Join,
    Plan,
    TableScan,
    children,
    map_children,
    preorder,
    tables_of,
)
from repro.optimizer import cardinality
from repro.optimizer.statistics import TableStatistics


@dataclass
class RewriteInfo:
    """What the pass did — feeds the ``optimizer.*`` metrics."""

    applied: bool = False
    reordered: bool = False
    transitive_conjuncts: int = 0


def rewrite_plan(
    plan: Plan,
    stats_by_table: Dict[str, TableStatistics],
    config: OptimizerConfig,
) -> Tuple[Plan, RewriteInfo]:
    """Apply the cost-based rewrites; see the module docstring."""
    info = RewriteInfo()
    if not config.enabled:
        return plan, info
    tables = tables_of(plan)
    if not tables or any(t not in stats_by_table for t in tables):
        return plan, info
    info.applied = True
    columns = cardinality.column_map(stats_by_table)
    plan = _propagate_equalities(plan, columns, info)
    plan = _reorder_joins(plan, stats_by_table, info)
    return plan, info


# -- equality transitivity ----------------------------------------------------


def _propagate_equalities(
    plan: Plan, columns: cardinality.ColumnMap, info: RewriteInfo
) -> Plan:
    """Copy ``col == v`` prune conjuncts across inner-join key classes."""
    classes = _equivalence_classes(plan)
    if not classes:
        return plan
    # Every equality conjunct present on any scan, keyed by column.
    literals: Dict[str, List] = {}
    for scan in _inner_scans(plan):
        for column, op, literal in scan.prune:
            if op == "==":
                literals.setdefault(column, []).append(literal)
    additions: Dict[int, List[Tuple[str, str, object]]] = {}
    for group in classes:
        values = []
        for column in sorted(group):
            for literal in literals.get(column, []):
                values.append(literal)
        if not values:
            continue
        for scan in _inner_scans(plan):
            owned = [c for c in sorted(group) if c in scan.columns]
            for column in owned:
                for literal in values:
                    conjunct = (column, "==", literal)
                    if conjunct not in scan.prune:
                        additions.setdefault(id(scan), []).append(conjunct)
    if not additions:
        return plan

    def apply(node: Plan) -> Plan:
        if isinstance(node, TableScan):
            extra = additions.get(id(node))
            if not extra:
                return node
            info.transitive_conjuncts += len(extra)
            return replace(node, prune=node.prune + tuple(extra))
        return map_children(node, apply)

    return apply(plan)


def _equivalence_classes(plan: Plan) -> List[Set[str]]:
    """Column equivalence classes induced by inner-join key pairs."""
    parent: Dict[str, str] = {}

    def find(col: str) -> str:
        parent.setdefault(col, col)
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for node in preorder(plan):
        if isinstance(node, Join) and node.how == "inner":
            for l_key, r_key in zip(node.left_keys, node.right_keys):
                union(l_key, r_key)
    groups: Dict[str, Set[str]] = {}
    for col in parent:
        groups.setdefault(find(col), set()).add(col)
    return [group for group in groups.values() if len(group) > 1]


def _inner_scans(plan: Plan) -> List[TableScan]:
    """Scans reachable through inner joins / unary nodes only.

    Scans under a semi- or anti-join's *right* side must not receive
    propagated conjuncts — pruning the right side of an anti-join can
    turn non-matches into matches.
    """
    out: List[TableScan] = []

    def walk(node: Plan) -> None:
        if isinstance(node, TableScan):
            out.append(node)
        elif isinstance(node, Join) and node.how != "inner":
            walk(node.left)
        else:
            for child in children(node):
                walk(child)

    walk(plan)
    return out


# -- join reordering ----------------------------------------------------------


@dataclass
class _JoinTree:
    """A flattened chain of inner equi-joins over base scans."""

    leaves: List[TableScan]
    #: ``(left_column, right_column)`` equi-conditions, in plan order.
    conditions: List[Tuple[str, str]]


def _flatten_joins(node: Plan) -> Optional[_JoinTree]:
    """Flatten ``node`` if it is a tree of inner equi-joins over scans."""
    if isinstance(node, TableScan):
        return _JoinTree(leaves=[node], conditions=[])
    if isinstance(node, Join) and node.how == "inner":
        left = _flatten_joins(node.left)
        right = _flatten_joins(node.right)
        if left is None or right is None:
            return None
        conditions = (
            left.conditions
            + right.conditions
            + list(zip(node.left_keys, node.right_keys))
        )
        return _JoinTree(
            leaves=left.leaves + right.leaves, conditions=conditions
        )
    return None


def _reorder_joins(
    plan: Plan,
    stats_by_table: Dict[str, TableStatistics],
    info: RewriteInfo,
) -> Plan:
    """Greedily reorder every maximal inner-join tree in the plan."""

    def walk(node: Plan) -> Plan:
        if isinstance(node, Join):
            tree = _flatten_joins(node)
            if tree is not None and len(tree.leaves) > 1:
                rebuilt, changed = _greedy_order(tree, stats_by_table)
                if rebuilt is not None:
                    if changed:
                        info.reordered = True
                        return rebuilt
                    return node
        return map_children(node, walk)

    return walk(plan)


def _greedy_order(
    tree: _JoinTree, stats_by_table: Dict[str, TableStatistics]
) -> Tuple[Optional[Plan], bool]:
    """Left-deep greedy join order; ``(None, False)`` when not applicable.

    Starts with the smallest estimated leaf and repeatedly joins the
    connected leaf minimizing estimated output.  Disconnected graphs
    (cross products) keep the original order.
    """
    columns = cardinality.column_map(stats_by_table)
    leaf_est: Dict[int, float] = {}
    for leaf in tree.leaves:
        stats = stats_by_table.get(leaf.table)
        if stats is None:
            return None, False
        leaf_est[id(leaf)] = cardinality.scan_estimate(leaf, stats)
    # Which leaf owns which condition columns (column names are unique
    # across tables, enforced by the binder).
    owner: Dict[str, TableScan] = {}
    for leaf in tree.leaves:
        for col in leaf.columns:
            owner[col] = leaf
    for l_col, r_col in tree.conditions:
        if l_col not in owner or r_col not in owner:
            return None, False

    remaining = list(tree.leaves)
    start = min(
        remaining, key=lambda leaf: (leaf_est[id(leaf)], leaf.table)
    )
    remaining.remove(start)
    current: Plan = start
    current_tables = {start.table}
    current_est = leaf_est[id(start)]
    order: List[str] = [start.table]

    while remaining:
        best: "Tuple[float, str, TableScan, List[Tuple[str, str]]] | None" = None
        for leaf in remaining:
            conds = _connecting(tree.conditions, owner, current_tables, leaf)
            if not conds:
                continue
            left_keys = tuple(pair[0] for pair in conds)
            right_keys = tuple(pair[1] for pair in conds)
            est = cardinality.join_estimate(
                current_est, leaf_est[id(leaf)], left_keys, right_keys, columns
            )
            if best is None or (est, leaf.table) < (best[0], best[1]):
                best = (est, leaf.table, leaf, conds)
        if best is None:
            # Disconnected join graph — keep the binder's order.
            return None, False
        est, _, leaf, conds = best
        current = Join(
            left=current,
            right=leaf,
            left_keys=tuple(pair[0] for pair in conds),
            right_keys=tuple(pair[1] for pair in conds),
            how="inner",
        )
        current_tables.add(leaf.table)
        current_est = est
        order.append(leaf.table)
        remaining.remove(leaf)

    original = [leaf.table for leaf in tree.leaves]
    return current, order != original


def _connecting(
    conditions: List[Tuple[str, str]],
    owner: Dict[str, TableScan],
    current_tables: Set[str],
    leaf: TableScan,
) -> List[Tuple[str, str]]:
    """Conditions linking the composite side to ``leaf``, oriented
    (composite column, leaf column)."""
    out: List[Tuple[str, str]] = []
    for l_col, r_col in conditions:
        l_table = owner[l_col].table
        r_table = owner[r_col].table
        if l_table in current_tables and r_table == leaf.table:
            out.append((l_col, r_col))
        elif r_table in current_tables and l_table == leaf.table:
            out.append((r_col, l_col))
    return out
