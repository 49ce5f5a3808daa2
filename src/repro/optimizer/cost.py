"""The optimizer's cost model: pricing scans, joins and aggregates.

Costs are abstract *row operations* (not simulated seconds): the unit a
plan node charges per row it touches.  The absolute scale is irrelevant —
only comparisons between alternatives matter — so the constants below
encode the classic relative shapes:

* hash join pays a per-row build surcharge on its right (build) input
  and a spill penalty once the build side exceeds memory;
* sort-merge pays ``n log n`` on both inputs but never spills;
* index-nested-loop pays a logarithmic probe per left row (only
  priced when a catalog index actually exists on the right key);
* block-nested-loop pays the quadratic product shrunk by the block
  factor — unbeatable when one side is tiny.

Every formula is documented in ``docs/OPTIMIZER.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

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

#: Per-row surcharge for building a hash table (vs. streaming a probe).
HASH_BUILD_FACTOR = 4.0
#: Build sides larger than this spill; both inputs are re-read once.
HASH_SPILL_ROWS = 65_536
#: Per-row multiplier applied to ``n log2 n`` sort work.
SORT_FACTOR = 0.25
#: Per-probe overhead of an index lookup on top of ``log2`` search.
INDEX_PROBE_OVERHEAD = 4.0


def join_algorithm_cost(
    algorithm: str,
    left_rows: float,
    right_rows: float,
    out_rows: float,
    block_rows: int = 256,
) -> float:
    """Cost of joining ``left × right`` with one algorithm."""
    left = max(left_rows, 0.0)
    right = max(right_rows, 0.0)
    out = max(out_rows, 0.0)
    if algorithm == "hash":
        cost = left + HASH_BUILD_FACTOR * right + out
        if right > HASH_SPILL_ROWS:
            cost += 2.0 * (left + right)
        return cost
    if algorithm == "sort_merge":
        return (
            SORT_FACTOR
            * (left * math.log2(left + 2.0) + right * math.log2(right + 2.0))
            + out
        )
    if algorithm == "index_nl":
        return left * (math.log2(right + 2.0) + INDEX_PROBE_OVERHEAD) + out
    if algorithm == "block_nl":
        return (left * right) / max(block_rows, 1) + out
    raise PlanError(f"unknown join algorithm {algorithm!r}")


def choose_join_algorithm(
    left_rows: float,
    right_rows: float,
    out_rows: float,
    right_index: bool,
    block_rows: int = 256,
) -> Tuple[str, float]:
    """The cheapest applicable algorithm and its cost.

    ``index_nl`` is only considered when a secondary index exists on the
    right key (``right_index``).  Ties break alphabetically so choices
    are deterministic across runs.
    """
    candidates = ["block_nl", "hash", "sort_merge"]
    if right_index:
        candidates.append("index_nl")
    best: "Tuple[float, str] | None" = None
    for name in sorted(candidates):
        cost = join_algorithm_cost(
            name, left_rows, right_rows, out_rows, block_rows
        )
        if best is None or cost < best[0]:
            best = (cost, name)
    assert best is not None
    return best[1], best[0]


def plan_costs(
    plan: Plan, estimates: Dict[int, int], block_rows: int = 256
) -> Dict[int, float]:
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
            cost = left + right + join_algorithm_cost(
                node.algorithm,
                rows(node.left),
                rows(node.right),
                rows(node),
                block_rows,
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
