"""Materialized relational operators over column batches."""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.engine import batch as batch_mod
from repro.engine.batch import Batch
from repro.engine.expressions import Col, Expr, evaluate


def filter_batch(batch: Batch, predicate: Expr) -> Batch:
    """Keep rows where ``predicate`` evaluates truthy."""
    if batch_mod.num_rows(batch) == 0:
        return batch
    keep = evaluate(predicate, batch).astype(bool)
    return batch_mod.mask(batch, keep)


def project(batch: Batch, outputs: Dict[str, Expr]) -> Batch:
    """Compute output columns from expressions over the input."""
    rows = batch_mod.num_rows(batch)
    if rows == 0:
        # Plain column references keep their input dtype so empty results
        # stay schema-stable; computed expressions fall back to object.
        return {
            name: (
                batch[expr.name]
                if isinstance(expr, Col) and expr.name in batch
                else np.empty(0, dtype=object)
            )
            for name, expr in outputs.items()
        }
    return {name: evaluate(expr, batch) for name, expr in outputs.items()}


def _check_join_keys(
    left_keys: Sequence[str], right_keys: Sequence[str]
) -> None:
    if len(left_keys) != len(right_keys):
        raise PlanError("join key lists must have equal length")


def _semi_anti(left: Batch, keep_match: np.ndarray, how: str) -> Batch:
    """Shared left-semi/left-anti tail: mask left rows by match flags."""
    if how == "left-anti":
        keep_match = ~keep_match
    return batch_mod.mask(left, keep_match)


def _gather_join(
    left: Batch, right: Batch, li: np.ndarray, ri: np.ndarray
) -> Batch:
    """Materialize inner-join output from matched row-index pairs."""
    overlap = set(left) & set(right)
    if overlap:
        raise PlanError(f"join output would duplicate columns {sorted(overlap)}")
    out: Batch = {name: values[li] for name, values in left.items()}
    out.update({name: values[ri] for name, values in right.items()})
    return out


def hash_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """Hash join.  ``how`` is ``inner``, ``left-semi`` or ``left-anti``.

    Column-name collisions between the two inputs are a plan bug and raise
    :class:`PlanError` (for inner joins; semi/anti keep only left columns).
    """
    _check_join_keys(left_keys, right_keys)
    index: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    right_key_cols = [right[k] for k in right_keys]
    for row in range(batch_mod.num_rows(right)):
        index[tuple(col[row] for col in right_key_cols)].append(row)

    left_rows = batch_mod.num_rows(left)
    left_key_cols = [left[k] for k in left_keys]

    if how in ("left-semi", "left-anti"):
        matched = np.fromiter(
            (
                tuple(col[row] for col in left_key_cols) in index
                for row in range(left_rows)
            ),
            dtype=bool,
            count=left_rows,
        )
        return _semi_anti(left, matched, how)

    if how != "inner":
        raise PlanError(f"unsupported join type {how!r}")
    left_indices: List[int] = []
    right_indices: List[int] = []
    for row in range(left_rows):
        matches = index.get(tuple(col[row] for col in left_key_cols))
        if matches:
            left_indices.extend([row] * len(matches))
            right_indices.extend(matches)
    li = np.asarray(left_indices, dtype=np.int64)
    ri = np.asarray(right_indices, dtype=np.int64)
    return _gather_join(left, right, li, ri)


def _match_pairs_sorted(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """All matching (li, ri) pairs in (li, ri) order via a merge scan.

    Both inputs are key-sorted (stable, so equal keys keep row order),
    then merged.  Emitting pairs left-major with ascending right indices
    inside each key group makes the output *byte-identical* to
    :func:`hash_join`, which probes left rows in order against an
    insertion-ordered build index.
    """
    left_rows = batch_mod.num_rows(left)
    right_rows = batch_mod.num_rows(right)
    left_tuples = _key_tuples(left, left_keys, left_rows)
    right_tuples = _key_tuples(right, right_keys, right_rows)
    lorder = sorted(range(left_rows), key=lambda i: (left_tuples[i], i))
    rorder = sorted(range(right_rows), key=lambda i: (right_tuples[i], i))
    pairs: List[Tuple[int, int]] = []
    ri = 0
    for li_pos in range(left_rows):
        li = lorder[li_pos]
        key = left_tuples[li]
        while ri < right_rows and right_tuples[rorder[ri]] < key:
            ri += 1
        scan = ri
        while scan < right_rows and right_tuples[rorder[scan]] == key:
            pairs.append((li, rorder[scan]))
            scan += 1
    pairs.sort()
    if not pairs:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    li_arr = np.array([p[0] for p in pairs], dtype=np.int64)
    ri_arr = np.array([p[1] for p in pairs], dtype=np.int64)
    return li_arr, ri_arr


def _key_tuples(
    batch: Batch, keys: Sequence[str], rows: int
) -> List[Tuple[Any, ...]]:
    cols = [batch[k] for k in keys]
    return [tuple(col[row] for col in cols) for row in range(rows)]


def _pairs_to_output(
    left: Batch,
    right: Batch,
    li: np.ndarray,
    ri: np.ndarray,
    how: str,
) -> Batch:
    """Turn matched index pairs into the requested join output."""
    if how in ("left-semi", "left-anti"):
        matched = np.zeros(batch_mod.num_rows(left), dtype=bool)
        if len(li):
            matched[li] = True
        return _semi_anti(left, matched, how)
    if how != "inner":
        raise PlanError(f"unsupported join type {how!r}")
    return _gather_join(left, right, li, ri)


def sort_merge_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """Sort-merge join: sort both inputs on the keys, merge-scan matches.

    Output rows and ordering are byte-identical to :func:`hash_join`;
    only the cost profile differs (n log n sorts, linear merge).
    """
    _check_join_keys(left_keys, right_keys)
    li, ri = _match_pairs_sorted(left, right, left_keys, right_keys)
    return _pairs_to_output(left, right, li, ri, how)


def block_nested_loop_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """Block nested-loop join: compare every left row against all right rows.

    The quadratic fallback — only sensible when one side is tiny.  Output
    is byte-identical to :func:`hash_join` (left-major pair order).  The
    block size exists only in the optimizer's cost formula: over
    materialized batches, blocking changes neither rows nor work.
    """
    _check_join_keys(left_keys, right_keys)
    left_rows = batch_mod.num_rows(left)
    right_rows = batch_mod.num_rows(right)
    right_tuples = _key_tuples(right, right_keys, right_rows)
    left_cols = [left[k] for k in left_keys]
    left_indices: List[int] = []
    right_indices: List[int] = []
    for row in range(left_rows):
        key = tuple(col[row] for col in left_cols)
        for r in range(right_rows):
            if right_tuples[r] == key:
                left_indices.append(row)
                right_indices.append(r)
    li = np.asarray(left_indices, dtype=np.int64)
    ri = np.asarray(right_indices, dtype=np.int64)
    return _pairs_to_output(left, right, li, ri, how)


def index_nested_loop_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """Index nested-loop join: probe a sorted index over the right input.

    Models probing a secondary index: the right side's key column is
    sorted once (the "index build" the optimizer assumes already paid
    for by a ``CREATE INDEX``) and each left row binary-searches it.
    Output is byte-identical to :func:`hash_join`.
    """
    _check_join_keys(left_keys, right_keys)
    left_rows = batch_mod.num_rows(left)
    right_rows = batch_mod.num_rows(right)
    right_tuples = _key_tuples(right, right_keys, right_rows)
    rorder = sorted(range(right_rows), key=lambda i: (right_tuples[i], i))
    sorted_keys = [right_tuples[i] for i in rorder]
    left_cols = [left[k] for k in left_keys]
    left_indices: List[int] = []
    right_indices: List[int] = []
    for row in range(left_rows):
        key = tuple(col[row] for col in left_cols)
        lo = bisect.bisect_left(sorted_keys, key)
        hi = bisect.bisect_right(sorted_keys, key)
        for pos in range(lo, hi):
            left_indices.append(row)
            right_indices.append(rorder[pos])
    li = np.asarray(left_indices, dtype=np.int64)
    ri = np.asarray(right_indices, dtype=np.int64)
    return _pairs_to_output(left, right, li, ri, how)


#: The physical join algorithms a :class:`repro.engine.planner.Join`
#: node may carry, mapped to their operator implementations.  Every
#: algorithm returns byte-identical output for the same inputs.
JOIN_ALGORITHMS = {
    "hash": hash_join,
    "sort_merge": sort_merge_join,
    "index_nl": index_nested_loop_join,
    "block_nl": block_nested_loop_join,
}


def join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
    algorithm: str = "hash",
) -> Batch:
    """Dispatch one join to its named physical algorithm."""
    try:
        fn = JOIN_ALGORITHMS[algorithm]
    except KeyError:
        raise PlanError(f"unknown join algorithm {algorithm!r}") from None
    return fn(left, right, left_keys, right_keys, how)


#: Aggregate spec: output name -> (function, input expression or None for count).
AggSpec = Dict[str, Tuple[str, Optional[Expr]]]

_AGG_FUNCS = ("sum", "min", "max", "count", "avg", "count_distinct")


def aggregate(batch: Batch, group_keys: Sequence[str], aggs: AggSpec) -> Batch:
    """Grouped (or, with no keys, global) aggregation."""
    for name, (func, __) in aggs.items():
        if func not in _AGG_FUNCS:
            raise PlanError(f"unknown aggregate {func!r} for output {name!r}")
    rows = batch_mod.num_rows(batch)
    inputs = {
        name: (evaluate(expr, batch) if expr is not None else None)
        for name, (__, expr) in aggs.items()
    }
    if not group_keys:
        out: Batch = {}
        everything = np.arange(rows)
        for name, (func, __) in aggs.items():
            out[name] = np.array([_fold(func, inputs[name], everything, rows)])
        return out

    groups: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    key_cols = [batch[k] for k in group_keys]
    for row in range(rows):
        groups[tuple(col[row] for col in key_cols)].append(row)

    ordered = list(groups.items())
    out = {}
    for pos, key_name in enumerate(group_keys):
        values = [key[pos] for key, __ in ordered]
        out[key_name] = _column_from_list(values, batch[key_name].dtype)
    for name, (func, __) in aggs.items():
        values = [
            _fold(func, inputs[name], np.asarray(indices, dtype=np.int64), rows)
            for __, indices in ordered
        ]
        out[name] = _column_from_list(values, None)
    return out


def sort(batch: Batch, keys: Sequence[Tuple[str, bool]]) -> Batch:
    """Sort by ``(column, ascending)`` keys, most significant first."""
    rows = batch_mod.num_rows(batch)
    if rows == 0:
        return batch
    order = np.arange(rows)
    # Stable sorts applied from least-significant key to most-significant;
    # a descending pass must keep ties in input order too, or it undoes
    # the less significant keys.
    for column, ascending in reversed(list(keys)):
        values = batch[column][order]
        if values.dtype.kind == "O":
            perm = np.array(
                sorted(
                    range(rows), key=lambda i: values[i], reverse=not ascending
                ),
                dtype=np.int64,
            )
        elif ascending:
            perm = np.argsort(values, kind="stable")
        else:
            # Stable descending: sort the reversed array ascending, then
            # reverse the permutation and map it back to input positions.
            perm = rows - 1 - np.argsort(values[::-1], kind="stable")[::-1]
        order = order[perm]
    return batch_mod.take(batch, order)


def limit(batch: Batch, count: int) -> Batch:
    """Keep the first ``count`` rows."""
    return {name: values[:count] for name, values in batch.items()}


def _fold(func: str, values: Optional[np.ndarray], indices: np.ndarray, rows: int) -> Any:
    if func == "count":
        return int(len(indices))
    if values is None:
        raise PlanError(f"aggregate {func!r} requires an input expression")
    selected = values[indices]
    if func == "count_distinct":
        return int(len(set(selected.tolist())))
    if len(selected) == 0:
        return 0 if func in ("sum",) else None
    if func == "sum":
        result = selected.sum()
    elif func == "min":
        result = selected.min()
    elif func == "max":
        result = selected.max()
    elif func == "avg":
        result = selected.mean()
    else:  # pragma: no cover - guarded in aggregate()
        raise PlanError(func)
    if isinstance(result, np.generic):
        return result.item()
    return result


def _column_from_list(values: List[Any], like_dtype: Optional[np.dtype]) -> np.ndarray:
    if like_dtype is not None and like_dtype.kind != "O":
        return np.array(values, dtype=like_dtype)
    if values and isinstance(values[0], bool):
        return np.array(values, dtype=bool)
    if values and isinstance(values[0], int):
        return np.array(values, dtype=np.int64)
    if values and isinstance(values[0], float):
        return np.array(values, dtype=np.float64)
    return np.array(values, dtype=object)
