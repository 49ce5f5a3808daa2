"""Per-row reference operators: the test oracle for the array kernels.

These are the ``hash_join`` and ``aggregate`` bodies ``engine/operators.py``
shipped before the operator layer was vectorised — one Python tuple per
row, a dict-of-lists hash index, a fold per group.  They are slow and
obviously right, which is the point: ``tests/test_engine_kernels.py``
demands that the kernels reproduce their output column by column, in row
order, dtype for dtype.  Test-only; nothing under ``src/`` imports this.

Two behaviours of the old bodies are *not* the contract (both were bugs
fixed with the kernels) and the tests steer around them: a float NaN key
matched by tuple identity (the kernels: NaN matches nothing in a join and
forms one group in GROUP BY), and per-group float sums used numpy's
pairwise order (the kernels add in input-row order; compare SUM/AVG with
a tolerance, everything else exactly).
"""

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.engine.batch import Batch, mask, num_rows
from repro.engine.expressions import evaluate
from repro.engine.operators import AggSpec


def hash_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """Build a dict-of-lists index over the right rows, probe it left row
    by left row: pairs come left-major with ascending right index."""
    index: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    right_key_cols = [right[k] for k in right_keys]
    for row in range(num_rows(right)):
        index[tuple(col[row] for col in right_key_cols)].append(row)

    left_rows = num_rows(left)
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
        return mask(left, ~matched if how == "left-anti" else matched)

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
    out: Batch = {name: values[li] for name, values in left.items()}
    out.update({name: values[ri] for name, values in right.items()})
    return out


def aggregate(batch: Batch, group_keys: Sequence[str], aggs: AggSpec) -> Batch:
    """Group rows by key tuple in a dict (insertion order = first
    appearance), then fold each group's row list per aggregate."""
    rows = num_rows(batch)
    inputs = {
        name: (evaluate(expr, batch) if expr is not None else None)
        for name, (__, expr) in aggs.items()
    }
    if not group_keys:
        out: Batch = {}
        everything = np.arange(rows)
        for name, (func, __) in aggs.items():
            out[name] = np.array([_fold(func, inputs[name], everything)])
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
            _fold(func, inputs[name], np.asarray(indices, dtype=np.int64))
            for __, indices in ordered
        ]
        out[name] = _column_from_list(values, None)
    return out


def _fold(func: str, values: Optional[np.ndarray], indices: np.ndarray) -> Any:
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
    else:
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
