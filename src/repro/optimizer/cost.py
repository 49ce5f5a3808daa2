"""The optimizer's cost model: pricing scans, joins and aggregates.

Costs are abstract *row operations* (not simulated seconds): the unit a
plan node charges per row it touches.  The absolute scale is irrelevant —
only comparisons between alternatives matter.  There is one join formula
because there is one join kernel (:func:`repro.engine.operators.hash_join`):
its right input pays a per-row surcharge for the per-code table (and,
when right keys repeat, the stable sort) built over its key codes, its
left input one table lookup per row, and every output row is
materialised once.  The kernel has no spill path, so neither has the
formula.

Every formula is documented in ``docs/OPTIMIZER.md``.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.common.errors import PlanError
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

#: Per-row surcharge on a join's right input (the side the kernel sorts).
HASH_BUILD_FACTOR = 4.0
#: Per-row multiplier applied to ``n log2 n`` sort work.
SORT_FACTOR = 0.25


def join_cost(left_rows: float, right_rows: float, out_rows: float) -> float:
    """Cost of joining ``left × right`` into ``out_rows`` rows."""
    return left_rows + HASH_BUILD_FACTOR * right_rows + out_rows


def plan_costs(plan: Plan, estimates: Dict[int, int]) -> Dict[int, float]:
    """Cumulative (subtree) cost per plan node, keyed by ``id(node)``.

    ``estimates`` comes from the cardinality estimator (stats-aware or
    default).
    """
    costs: Dict[int, float] = {}

    def rows(node: Plan) -> float:
        return float(estimates.get(id(node), 0))

    def walk(node: Plan) -> float:
        if isinstance(node, TableScan):
            cost = rows(node)
        elif isinstance(node, (Filter, Project)):
            cost = walk(node.child) + rows(node.child)
        elif isinstance(node, Join):
            left = walk(node.left)
            right = walk(node.right)
            cost = left + right + join_cost(
                rows(node.left), rows(node.right), rows(node)
            )
        elif isinstance(node, Aggregate):
            cost = walk(node.child) + rows(node.child) + rows(node)
        elif isinstance(node, Sort):
            n = rows(node.child)
            cost = walk(node.child) + SORT_FACTOR * n * math.log2(n + 2.0)
        elif isinstance(node, Limit):
            cost = walk(node.child) + rows(node)
        else:
            raise PlanError(f"unknown plan node {node!r}")
        costs[id(node)] = cost
        return cost

    walk(plan)
    return costs
