"""Distributed execution of write statements (Sections 3.2.2, 4.3).

Every DML statement compiles to a DCP workflow DAG whose tasks target
disjoint cells, so manifest entries never need merging across BE nodes:

* **insert** — one task per target distribution; each writes a private
  data file and stages a manifest block with its ``AddDataFile`` action.
* **bulk load** — one task per *source file* (reading within a source file
  does not scale out; this is the bottleneck shape of Figure 7).
* **delete** — one task per cell; each computes matched row positions per
  data file, writes merged deletion-vector files, and stages
  ``RemoveDeletionVector``/``AddDeletionVector`` blocks.
* **update** — delete plus insert in one statement: matched rows are
  DV-masked in place and re-written (with assignments applied) as new
  data files in the same cell.

The FE aggregates the block ids returned by the tasks and flushes the
transaction manifest: appends for inserts, a reconciling rewrite for
updates/deletes (Section 3.2.3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SchemaMismatchError
from repro.dcp.cells import cells_for_snapshot, distribution_of
from repro.dcp.channels import estimate_batch_bytes
from repro.dcp.dag import WorkflowDag
from repro.dcp.tasks import Task, TaskContext
from repro.engine.batch import Batch, num_rows
from repro.engine.expressions import Expr, evaluate
from repro.engine.zorder import zorder_permutation
from repro.fe.catalog import table_schema
from repro.fe.context import ServiceContext
from repro.fe.transaction import PolarisTransaction
from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDeletionVector,
)
from repro.lst.manifest import encode_actions
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.file_format import write_page_file
from repro.pagefile.reader import PageFileReader
from repro.pagefile.schema import Schema
from repro.pagefile.stats import compute_stats
from repro.storage import paths
from repro.storage.integrity import CHECKSUM_KEY, verify_checksum
from repro.storage.object_store import Blob


# -- shared helpers -------------------------------------------------------------


def _file_stamp(txn: PolarisTransaction) -> Dict[str, str]:
    """Creation metadata the garbage collector keys on (Section 5.3)."""
    return {
        "creator_txid": str(txn.txid),
        "creator_begin_ts": repr(txn.begin_ts),
    }


def _write_data_file(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_id: int,
    schema: Schema,
    columns: Batch,
    distribution: int,
    sort_column: "str | Sequence[str] | None" = None,
) -> DataFileInfo:
    """Write one private data file; returns its manifest descriptor.

    With ``sort_column`` (the table's partitioning function p(r),
    Section 2.3) rows are ordered before writing, which tightens both the
    row-group zone maps inside the file and the file-level zone maps
    recorded in the manifest.  A composite key (a list of columns) orders
    rows along the Z-curve instead, so range predicates on any of the
    participating columns stay selective.
    """
    if sort_column is not None and num_rows(columns) > 1:
        if isinstance(sort_column, str):
            order = np.argsort(columns[sort_column], kind="stable")
        else:
            order = zorder_permutation(columns, sort_column)
        columns = {name: values[order] for name, values in columns.items()}
    name = context.guids.next() + ".rpf"
    path = paths.data_file_path(context.database, table_id, name)
    data = write_page_file(
        schema, columns, row_group_size=context.config.row_group_size
    )
    blob = context.store.put(path, data, metadata=_file_stamp(txn))
    return DataFileInfo(
        name=name,
        path=path,
        num_rows=num_rows(columns),
        size_bytes=len(data),
        distribution=distribution,
        column_stats=_file_column_stats(schema, columns),
        checksum=blob.metadata.get(CHECKSUM_KEY, ""),
    )


def _file_column_stats(schema: Schema, columns: Batch):
    """File-level (column, min, max) zone maps for the manifest entry."""
    stats = []
    for fld in schema:
        if fld.type == "bool":
            continue  # pruning on bools is never worthwhile
        summary = compute_stats(fld, np.asarray(columns[fld.name]))
        if summary.minimum is not None:
            stats.append((fld.name, summary.minimum, summary.maximum))
    return tuple(stats)


def _write_dv_file(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_id: int,
    target_file: str,
    vector: DeletionVector,
) -> DeletionVectorInfo:
    """Write one private deletion-vector file."""
    name = context.guids.next() + ".rdv"
    path = paths.dv_file_path(context.database, table_id, name)
    data = vector.to_bytes()
    blob = context.store.put(path, data, metadata=_file_stamp(txn))
    return DeletionVectorInfo(
        name=name,
        path=path,
        target_file=target_file,
        cardinality=vector.cardinality,
        size_bytes=len(data),
        checksum=blob.metadata.get(CHECKSUM_KEY, ""),
    )


def _get_cross_checked(context: ServiceContext, path: str, expected: str) -> Blob:
    """Fetch a blob and verify it against the manifest's mirrored checksum.

    The store's ``get`` verifies the bytes against the blob's own metadata
    checksum; the cross-check catches a swapped blob whose metadata was
    rewritten to match.  When the manifest's checksum *is* the metadata
    checksum, ``get`` has just proven the crc32 of these bytes equals it,
    so the cross-check holds without computing it a second time; any
    other pair (a legacy blob without metadata, a rewritten one) is
    recomputed and compared.
    """
    blob = context.store.get(path)
    if not expected or expected != blob.metadata.get(CHECKSUM_KEY):
        verify_checksum(path, blob.data, expected, telemetry=context.telemetry)
    return blob


def _open_data_file(context: ServiceContext, info: DataFileInfo) -> PageFileReader:
    """Open one data file with both verification layers applied.

    The blob is verified against its own metadata checksum and against
    the manifest's (:func:`_get_cross_checked`: both checks, one crc32),
    and the reader gets the blob path so format errors are
    self-describing.  Both run on every open: the chunk cache is handed
    over only once they have passed, and a hit in it saves the reader a
    ``zlib.decompress``, never the fetch or a check.
    """
    blob = _get_cross_checked(context, info.path, info.checksum)
    return PageFileReader(
        blob.data, source=info.path, cache=context.chunk_cache, etag=blob.etag
    )


def _load_dv(
    context: ServiceContext, info: Optional[DeletionVectorInfo]
) -> Optional[DeletionVector]:
    if info is None:
        return None
    blob = _get_cross_checked(context, info.path, info.checksum)
    return DeletionVector.from_bytes(blob.data)


def _resize_write_pool(context: ServiceContext, rows: int, source_files: int) -> None:
    if context.elastic:
        context.wlm.resize_pool(
            "write", context.autoscaler.nodes_for_load(rows, source_files)
        )


def _validate_batch(schema: Schema, batch: Batch) -> int:
    try:
        return schema.validate_columns(
            {name: np.asarray(values) for name, values in batch.items()}
        )
    except SchemaMismatchError:
        raise


# -- insert ----------------------------------------------------------------------


def execute_insert(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    batch: Batch,
) -> int:
    """Insert a batch; returns the number of rows inserted."""
    table_id = table_row["table_id"]
    schema = table_schema(table_row)
    total = _validate_batch(schema, batch)
    if total == 0:
        return 0
    assignments = _distribution_assignment(context, table_row, batch, total)
    sort_column = table_row.get("sort_column")
    dag = WorkflowDag()
    state = txn.write_state(table_id)

    for distribution in sorted(set(assignments.tolist())):
        rows = np.flatnonzero(assignments == distribution)
        part = {name: values[rows] for name, values in batch.items()}

        def write_part(
            ctx: TaskContext, part: Batch = part, distribution: int = distribution
        ) -> Tuple[List[str], List[Action], int]:
            info = _write_data_file(
                context, txn, table_id, schema, part, distribution,
                sort_column=sort_column,
            )
            actions: List[Action] = [AddDataFile(info)]
            writer = txn.manifest_writer(table_id)
            block_id = writer.write_block(encode_actions(actions))
            return [block_id], actions, info.num_rows

        dag.add_task(
            Task(
                task_id=f"insert:{table_id}:{distribution}",
                fn=write_part,
                est_rows=len(rows),
                est_files=1,
                est_bytes=estimate_batch_bytes(part),
                pool="write",
            )
        )

    _resize_write_pool(context, total, len(dag))
    result = context.scheduler.execute(dag, wlm=context.wlm)
    block_ids, actions = _collect_write_results(result.results)
    txn.flush_insert(table_id, block_ids, actions)
    state.rows_inserted += total
    return total


def execute_bulk_load(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    source_batches: Sequence[Batch],
    advance_clock: bool = True,
) -> int:
    """Bulk load: one task per source file (Figure 7's unit of parallelism).

    With ``advance_clock=False`` the statement's simulated duration is laid
    out on the pool's slot timelines but the shared clock stays put — the
    load runs *logically concurrent* with whatever the caller does next
    (used by the concurrency benchmarks).
    """
    table_id = table_row["table_id"]
    schema = table_schema(table_row)
    totals = [_validate_batch(schema, batch) for batch in source_batches]
    total = sum(totals)
    if total == 0:
        return 0
    dag = WorkflowDag()
    distributions = context.config.distributions
    sort_column = table_row.get("sort_column")

    for index, batch in enumerate(source_batches):
        if totals[index] == 0:
            continue

        def load_source(
            ctx: TaskContext, batch: Batch = batch, index: int = index
        ) -> Tuple[List[str], List[Action], int]:
            info = _write_data_file(
                context, txn, table_id, schema, batch, index % distributions,
                sort_column=sort_column,
            )
            actions: List[Action] = [AddDataFile(info)]
            writer = txn.manifest_writer(table_id)
            block_id = writer.write_block(encode_actions(actions))
            return [block_id], actions, info.num_rows

        dag.add_task(
            Task(
                task_id=f"load:{table_id}:{index:05d}",
                fn=load_source,
                est_rows=totals[index],
                est_files=1,
                est_bytes=estimate_batch_bytes(batch),
                pool="write",
            )
        )

    _resize_write_pool(context, total, len(dag))
    result = context.scheduler.execute(
        dag, wlm=context.wlm, advance_clock=advance_clock
    )
    block_ids, actions = _collect_write_results(result.results)
    txn.flush_insert(table_id, block_ids, actions)
    txn.write_state(table_id).rows_inserted += total
    return total


# -- delete ------------------------------------------------------------------------


def execute_delete(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    predicate: Expr,
    prune: Sequence[Tuple[str, str, Any]] = (),
) -> int:
    """Delete matching rows; returns how many rows were marked deleted."""
    deleted, __ = _execute_mutation(
        context, txn, table_row, predicate, prune, assignments=None
    )
    return deleted


def execute_update(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    predicate: Expr,
    assignments: Dict[str, Expr],
    prune: Sequence[Tuple[str, str, Any]] = (),
) -> int:
    """Update matching rows (delete + re-insert); returns rows updated."""
    __, updated = _execute_mutation(
        context, txn, table_row, predicate, prune, assignments=assignments
    )
    return updated


def _execute_mutation(
    context: ServiceContext,
    txn: PolarisTransaction,
    table_row: Dict[str, Any],
    predicate: Expr,
    prune: Sequence[Tuple[str, str, Any]],
    assignments: Optional[Dict[str, Expr]],
) -> Tuple[int, int]:
    """Shared delete/update body.  Returns (rows_deleted, rows_rewritten)."""
    table_id = table_row["table_id"]
    schema = table_schema(table_row)
    snapshot = txn.table_snapshot(table_id)
    cells = [
        cell
        for cell in cells_for_snapshot(table_id, snapshot, context.config.distributions)
        if cell.files
    ]
    if not cells:
        return 0, 0
    dag = WorkflowDag()
    prune_list = list(prune)

    for cell in cells:

        def mutate_cell(
            ctx: TaskContext, cell=cell
        ) -> Tuple[List[str], List[Action], int, List[str]]:
            actions: List[Action] = []
            touched: List[str] = []
            matched_rows: List[Batch] = []
            n_matched = 0
            for info in cell.files:
                if prune_list and not info.may_match(tuple(prune_list)):
                    continue
                reader = _open_data_file(context, info)
                existing_info = snapshot.dv_for(info.name)
                existing_dv = _load_dv(context, existing_info)
                batch = reader.read(
                    prune=prune_list or None,
                    deletion_vector=existing_dv,
                    with_positions=True,
                )
                if num_rows(batch) == 0:
                    continue
                match = evaluate(predicate, batch).astype(bool)
                if not match.any():
                    continue
                positions = batch["__pos__"][match]
                new_dv = DeletionVector(positions.tolist())
                if existing_dv is not None:
                    new_dv = existing_dv.union(new_dv)
                dv_info = _write_dv_file(context, txn, table_id, info.name, new_dv)
                if existing_info is not None:
                    actions.append(RemoveDeletionVector(existing_info))
                actions.append(AddDeletionVector(dv_info))
                touched.append(info.name)
                n_matched += int(match.sum())
                if assignments is not None:
                    kept = {
                        name: values[match]
                        for name, values in batch.items()
                        if name != "__pos__"
                    }
                    matched_rows.append(kept)
            if assignments is not None and matched_rows:
                updated = _apply_assignments(matched_rows, assignments, schema)
                info = _write_data_file(
                    context, txn, table_id, schema, updated, cell.distribution,
                    sort_column=table_row.get("sort_column"),
                )
                actions.append(AddDataFile(info))
            if not actions:
                return [], [], 0, []
            writer = txn.manifest_writer(table_id)
            block_id = writer.write_block(encode_actions(actions))
            return [block_id], actions, n_matched, touched

        dag.add_task(
            Task(
                task_id=f"mutate:{table_id}:{cell.distribution:04d}",
                fn=mutate_cell,
                est_rows=cell.num_rows,
                est_files=len(cell.files),
                est_bytes=cell.total_bytes,
                pool="write",
            )
        )

    if context.elastic:
        total_rows = sum(cell.num_rows for cell in cells)
        context.wlm.resize_pool(
            "write", context.autoscaler.nodes_for_query(total_rows)
        )
    result = context.scheduler.execute(dag, wlm=context.wlm)

    new_actions: List[Action] = []
    touched_all: List[str] = []
    total_matched = 0
    for task_id in sorted(result.results):
        __, actions, matched, touched = result.results[task_id]
        new_actions.extend(actions)
        touched_all.extend(touched)
        total_matched += matched
    if not new_actions:
        return 0, 0
    state = txn.write_state(table_id)
    state.has_update_or_delete = True
    state.touched_files.update(touched_all)
    state.rows_deleted += total_matched
    txn.flush_rewrite(table_id, new_actions)
    return total_matched, (total_matched if assignments is not None else 0)


def _apply_assignments(
    matched_rows: List[Batch], assignments: Dict[str, Expr], schema: Schema
) -> Batch:
    from repro.engine.batch import concat_batches

    merged = concat_batches(matched_rows)
    out: Batch = {}
    for fld in schema:
        if fld.name in assignments:
            out[fld.name] = evaluate(assignments[fld.name], merged)
        else:
            out[fld.name] = merged[fld.name]
    return out


def _distribution_assignment(
    context: ServiceContext, table_row: Dict[str, Any], batch: Batch, total: int
) -> np.ndarray:
    column = table_row.get("distribution_column")
    if column is not None:
        return distribution_of(np.asarray(batch[column]), context.config.distributions)
    return np.arange(total, dtype=np.int64) % context.config.distributions


def _collect_write_results(results: Dict[str, Any]) -> Tuple[List[str], List[Action]]:
    block_ids: List[str] = []
    actions: List[Action] = []
    for task_id in sorted(results):
        ids, acts, __ = results[task_id]
        block_ids.extend(ids)
        actions.extend(acts)
    return block_ids, actions
