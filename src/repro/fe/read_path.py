"""Distributed execution of read statements (Section 3.2.1).

A query plan's base-table scans fan out as one DCP task per cell; each
task reconstructs its slice from immutable data files plus the current
deletion vectors (merge-on-read), with projection and zone-map pruning
pushed down.  The FE concatenates the partial batches and runs the rest of
the plan, charging its CPU cost to the clock as the root task.

Scans also gather the coarse per-table statistics (file counts, deleted
rows) the FE pushes to the STO (Section 5.1) — the trigger feed for
autonomous compaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.dcp.cells import cells_for_snapshot
from repro.dcp.dag import WorkflowDag
from repro.dcp.tasks import Task, TaskContext
from repro.engine.batch import Batch, concat_batches, empty_batch, num_rows
from repro.engine.executor import execute_plan
from repro.engine.explain import PlanProfile, explain_analyze
from repro.engine.operators import filter_batch
from repro.engine.planner import Plan, TableScan, scans_of
from repro.engine.statistics import collect_stats
from repro.fe.catalog import describe_table
from repro.fe.context import ServiceContext
from repro.fe.timetravel import snapshot_as_of
from repro.fe.transaction import PolarisTransaction
from repro.fe.write_path import _load_dv, _open_data_file
from repro.lst.snapshot import TableSnapshot
from repro.optimizer.cardinality import estimate_with_stats

if TYPE_CHECKING:
    from repro.optimizer.statistics import TableStatistics


def scan_table(
    context: ServiceContext,
    txn: PolarisTransaction,
    scan: TableScan,
    snapshot_override: "TableSnapshot | None" = None,
    report: Optional[Dict[str, Any]] = None,
) -> Batch:
    """Execute one distributed table scan within ``txn``'s snapshot.

    ``snapshot_override`` substitutes an explicit snapshot (Query As Of,
    Section 6.1) for the transaction's own view.  A ``report`` dict, when
    given, is filled with EXPLAIN ANALYZE counters: files scanned vs.
    pruned (zone maps at manifest level), row groups scanned vs. pruned
    (zone maps inside page files), cells scheduled, and rows produced.
    """
    table_row = describe_table(txn.root, scan.table)
    table_id = table_row["table_id"]
    snapshot = (
        snapshot_override
        if snapshot_override is not None
        else txn.table_snapshot(table_id)
    )
    # File-level pruning: manifests carry per-file zone maps, so whole
    # files that cannot match are dropped before any cell is scheduled.
    # Secondary indexes prune further: equality conjuncts drop covered
    # files the index proves cannot match (hash-distributed keys defeat
    # zone maps, but not a sorted run).  Health statistics are reported
    # over the *unpruned* snapshot.
    full_snapshot = snapshot
    if scan.prune:
        snapshot = _prune_snapshot(snapshot, scan.prune)
        if context.optimizer is not None:
            snapshot = context.optimizer.prune_snapshot(
                txn.root, table_id, scan.prune, snapshot
            )
    if report is not None:
        report["files"] = len(full_snapshot.files)
        report["files_pruned"] = len(full_snapshot.files) - len(snapshot.files)
        report["row_groups"] = 0
        report["row_groups_pruned"] = 0
        # The planner's base-cardinality statistic: live rows in the
        # unpruned snapshot (file rows minus deletion-vector rows).
        live = sum(info.num_rows for info in full_snapshot.files.values()) - sum(
            dv.cardinality for dv in full_snapshot.dvs.values()
        )
        report["est_rows"] = max(int(live), 0)
    cells = [
        cell
        for cell in cells_for_snapshot(table_id, snapshot, context.config.distributions)
        if cell.files
    ]
    if report is not None:
        report["cells"] = len(cells)
    if not cells:
        _publish_scan_stats(context, table_id, full_snapshot)
        if report is not None:
            report["rows"] = 0
        return empty_batch(scan.columns)

    dag = WorkflowDag()
    prune = list(scan.prune) or None
    for cell in cells:

        def scan_cell(ctx: TaskContext, cell=cell) -> Batch:
            parts: List[Batch] = []
            for info in cell.files:
                reader = _open_data_file(context, info)
                if report is not None:
                    scanned_groups, pruned_groups = reader.prune_counts(prune)
                    report["row_groups"] += scanned_groups
                    report["row_groups_pruned"] += pruned_groups
                dv = _load_dv(context, snapshot.dv_for(info.name))
                batch = reader.read(
                    columns=list(scan.columns),
                    prune=prune,
                    deletion_vector=dv,
                )
                if scan.predicate is not None and num_rows(batch):
                    batch = filter_batch(batch, scan.predicate)
                if num_rows(batch):
                    parts.append(batch)
            return concat_batches(parts) if parts else empty_batch(scan.columns)

        dag.add_task(
            Task(
                task_id=f"scan:{table_id}:{cell.distribution:04d}",
                fn=scan_cell,
                est_rows=cell.num_rows,
                est_files=len(cell.files),
                est_bytes=cell.total_bytes,
                pool="read",
            )
        )

    if context.elastic:
        total_rows = sum(cell.num_rows for cell in cells)
        context.wlm.resize_pool("read", context.autoscaler.nodes_for_query(total_rows))
    result = context.scheduler.execute(dag, wlm=context.wlm)
    parts = [
        result.results[task_id]
        for task_id in sorted(result.results)
        if num_rows(result.results[task_id])
    ]
    _publish_scan_stats(context, table_id, full_snapshot)
    out = concat_batches(parts) if parts else empty_batch(scan.columns)
    if report is not None:
        report["rows"] = num_rows(out)
    return out


def optimize_plan(
    context: ServiceContext,
    txn: PolarisTransaction,
    plan: Plan,
    catalog: "Optional[Dict[str, TableStatistics]]" = None,
) -> Plan:
    """Run the cost-based rewrite pass over ``plan`` (identity without
    statistics for every referenced table, or with the optimizer off).

    ``catalog`` is the statement's ``optimizer.catalog_inputs`` when the
    caller has already read them.
    """
    if context.optimizer is None:
        return plan
    rewritten, _ = context.optimizer.rewrite(txn, plan, catalog)
    return rewritten


def _run_query(
    context: ServiceContext,
    txn: PolarisTransaction,
    plan: Plan,
    as_of: "float | None",
    observed: bool,
) -> PlanProfile:
    """The one query driver behind every ``execute_query*`` entry point.

    The plan first passes through the cost-based optimizer (a no-op
    until statistics exist); each base scan then runs as its own
    distributed DAG; the residual plan (joins, aggregation, sort) runs
    at the root, with its CPU cost charged to the simulated clock.  With
    ``as_of``, every scan reads the tables' state at that timestamp
    instead (Query As Of).  ``observed`` changes nothing about what runs
    or what the clock is charged: it additionally has every scan fill a
    pruning/row report and every operator record its stats, and prices
    the plan's estimates from the same catalog statistics the rewrite
    used (read once per statement).
    """
    optimizer = context.optimizer
    catalog = None
    if observed and optimizer is not None:
        catalog = optimizer.catalog_inputs(txn, plan)
    plan = optimize_plan(context, txn, plan, catalog)
    scanned: Dict[int, Batch] = {}
    scan_details: Dict[int, Dict[str, Any]] = {}
    scan_rows = 0

    def source(scan: TableScan) -> Batch:
        return scanned[id(scan)]

    for scan in scans_of(plan):
        override = None
        if as_of is not None:
            table_row = describe_table(txn.root, scan.table)
            override = snapshot_as_of(context, table_row["table_id"], as_of)
        started = context.clock.now
        report: Optional[Dict[str, Any]] = {} if observed else None
        batch = scan_table(
            context, txn, scan, snapshot_override=override, report=report
        )
        if report is not None:
            report["sim_time_s"] = context.clock.now - started
            scan_details[id(scan)] = report
        scanned[id(scan)] = batch
        scan_rows += num_rows(batch)

    if observed:
        base_rows = {
            scan_id: float(report.get("est_rows", 0))
            for scan_id, report in scan_details.items()
        }
        if optimizer is not None:
            estimates, provenance, costs = optimizer.annotate(
                plan, base_rows, catalog
            )
        else:
            estimates = estimate_with_stats(plan, base_rows, {})
            provenance = costs = None
        profile = explain_analyze(
            plan,
            source,
            cost_model=context.cost_model,
            scan_details=scan_details,
            estimates=estimates,
            provenance=provenance,
            costs=costs,
        )
    else:
        profile = PlanProfile(batch=execute_plan(plan, source), plan=plan, stats={})
    context.clock.advance(context.cost_model.task_duration(scan_rows, 0, 0))
    return profile


def execute_query(
    context: ServiceContext,
    txn: PolarisTransaction,
    plan: Plan,
    as_of: "float | None" = None,
) -> Batch:
    """Execute a full query plan within ``txn``'s snapshot (see
    :func:`_run_query`); with ``as_of``, time-travel the scans."""
    return _run_query(context, txn, plan, as_of, observed=False).batch


def execute_query_profiled(
    context: ServiceContext,
    txn: PolarisTransaction,
    plan: Plan,
    as_of: "float | None" = None,
) -> PlanProfile:
    """Run ``plan`` like :func:`execute_query`, observed.

    The query-store execution path: identical results and clock
    charges, plus pruning reports and per-operator stats — cheap enough
    to run on every statement, since the annotated text is rendered
    only if someone reads it.  The returned profile carries the
    *optimized* plan so the query store fingerprints what actually ran.
    """
    return _run_query(context, txn, plan, as_of, observed=True)


def execute_query_analyzed(
    context: ServiceContext,
    txn: PolarisTransaction,
    plan: Plan,
    as_of: "float | None" = None,
) -> PlanProfile:
    """EXPLAIN ANALYZE: the same observed run as
    :func:`execute_query_profiled`; the caller reads ``.text`` for the
    annotated operator tree (estimates tagged with their ``stats`` /
    ``default`` provenance and optimizer cost when statistics exist)."""
    return _run_query(context, txn, plan, as_of, observed=True)


def _prune_snapshot(snapshot: TableSnapshot, prune) -> TableSnapshot:
    """A snapshot view keeping only files whose zone maps may match."""
    prune = tuple(prune)
    kept = {
        name: info
        for name, info in snapshot.files.items()
        if info.may_match(prune)
    }
    if len(kept) == len(snapshot.files):
        return snapshot
    return TableSnapshot(
        sequence_id=snapshot.sequence_id,
        files=kept,
        dvs={name: dv for name, dv in snapshot.dvs.items() if name in kept},
        tombstones=snapshot.tombstones,
    )


def _publish_scan_stats(context: ServiceContext, table_id, snapshot) -> None:
    stats = collect_stats(table_id, snapshot, context.config.sto)
    context.bus.publish(
        "stats.table",
        table_id=table_id,
        stats=stats,
    )
