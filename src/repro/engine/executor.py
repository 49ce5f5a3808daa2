"""Single-node plan execution.

Evaluates a logical plan bottom-up over materialized batches.  The caller
supplies a *scan source*: a callable resolving each :class:`TableScan`
into a batch — in production that is the FE read path over a transaction's
snapshot; in tests it can be a plain dict of batches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import PlanError
from repro.engine import operators
from repro.engine.batch import Batch
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
)

#: Resolves a TableScan into its (already projected/pruned/filtered) batch.
ScanSource = Callable[[TableScan], Batch]

#: Called once per operator, children before parents, with the node, the
#: batch it produced and the batches it consumed (none for a scan).
Observer = Callable[[Plan, Batch, List[Batch]], None]


def execute_plan(
    plan: Plan, scan_source: ScanSource, observe: Optional[Observer] = None
) -> Batch:
    """Execute ``plan`` and return the result batch.

    The only mapping from plan nodes to :mod:`repro.engine.operators`;
    EXPLAIN ANALYZE and the query store run this same function with an
    ``observe`` callback instead of interpreting the tree themselves.
    """
    inputs = [execute_plan(child, scan_source, observe) for child in children(plan)]
    if isinstance(plan, TableScan):
        batch = scan_source(plan)
        missing = [c for c in plan.columns if c not in batch]
        if missing:
            raise PlanError(f"scan of {plan.table!r} missing columns {missing}")
        result = {name: batch[name] for name in plan.columns}
    elif isinstance(plan, Filter):
        result = operators.filter_batch(inputs[0], plan.predicate)
    elif isinstance(plan, Project):
        result = operators.project(inputs[0], plan.outputs)
    elif isinstance(plan, Join):
        result = operators.join(
            inputs[0], inputs[1], plan.left_keys, plan.right_keys, plan.how
        )
    elif isinstance(plan, Aggregate):
        result = operators.aggregate(inputs[0], plan.group_keys, plan.aggs)
    elif isinstance(plan, Sort):
        result = operators.sort(inputs[0], plan.keys)
    elif isinstance(plan, Limit):
        result = operators.limit(inputs[0], plan.count)
    else:
        raise PlanError(f"unknown plan node {plan!r}")
    if observe is not None:
        observe(plan, result, inputs)
    return result


def dict_scan_source(batches: Dict[str, Batch]) -> ScanSource:
    """A scan source over in-memory tables (tests and examples).

    Applies the scan's residual predicate, since there is no storage layer
    underneath to do it.
    """

    def source(scan: TableScan) -> Batch:
        batch = batches[scan.table]
        if scan.predicate is not None:
            batch = operators.filter_batch(batch, scan.predicate)
        return batch

    return source
