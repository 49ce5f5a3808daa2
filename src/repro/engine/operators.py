"""Materialized relational operators over column batches.

Joins and GROUP BY share one *key factoriser*: 1..n key columns become
one integer code array in ``[0, radix)`` in which equal keys — and only
equal keys — have equal codes; a dictionary-hinted string column
contributes the codes it was stored with.  One pair kernel
(:func:`_equi_pairs`, a per-code table lookup) serves the one join
(:func:`hash_join`) and one grouping kernel (a stable sort of the codes,
in the narrowest width the radix allows) serves :func:`aggregate`; both
work a column at a time, never a Python tuple per row.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import PlanError
from repro.engine import batch as batch_mod
from repro.engine.batch import Batch
from repro.engine.expressions import Col, Expr, evaluate
from repro.pagefile.encoding import concat, select


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


#: Mixed-radix key codes stay below this; a column that would push the
#: product past it is re-densified first (then radix <= rows per column).
_MAX_RADIX = 1 << 62

#: The pair kernel builds a table with one slot per code; past this many
#: slots per input row it re-densifies the codes first (one ``np.unique``).
#: Measured at 16k rows with repeated right keys: the table path takes
#: 0.4 ms at 4 slots per row, 1.2 ms at 8 and 1.7 ms at 16 (it leaves
#: cache, and each fresh allocation page-faults) against 0.7 ms
#: re-densified; the bound also keeps the table under 64 bytes per row.
_MAX_TABLE_SLOTS_PER_ROW = 8


def _densify(codes: np.ndarray, equal_nan: bool = True) -> Tuple[np.ndarray, int]:
    """Dense ranks of ``codes`` and how many distinct values there are."""
    distinct, ranks = np.unique(codes, return_inverse=True, equal_nan=equal_nan)
    return ranks, len(distinct)


def _first_rows(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each value coded by the row it first appears in, and how many
    distinct values there are — one ``dict.setdefault`` per value, so only
    for a dictionary's entries or a column that has no dictionary."""
    first_row: Dict[Any, int] = {}
    codes = np.fromiter(
        map(first_row.setdefault, values, range(len(values))),
        dtype=np.int64,
        count=len(values),
    )
    return codes, len(first_row)


def _column_codes(values: np.ndarray, equal_nan: bool) -> Tuple[np.ndarray, int]:
    """``(codes, radix)`` for one key column, ``0 <= codes < radix``.

    Equal values get equal codes and unequal values unequal codes; a float
    NaN equals other NaNs only when ``equal_nan``.
    """
    rows = len(values)
    kind = values.dtype.kind
    if rows == 0:
        return np.empty(0, dtype=np.int64), 1
    if kind == "O":
        hint = batch_mod.dictionary_of(values)
        if hint is None:
            return _first_rows(values)[0], rows
        # The column's own codes, unless entries repeat (after ``Substr``,
        # say): then an entry's code is that of its first equal entry.
        codes, dictionary = hint
        entry_codes, distinct = _first_rows(dictionary)
        if distinct < len(dictionary):
            codes = entry_codes[codes]
        return codes, len(dictionary)
    if kind == "b":
        return values.astype(np.int64), 2
    if kind == "i":
        wide = values.astype(np.int64, copy=False)
        low, high = int(wide.min()), int(wide.max())
        if high - low < _MAX_RADIX:
            return wide - low, high - low + 1
    return _densify(values, equal_nan)


def _factorize(
    columns: Sequence[np.ndarray], rows: int, equal_nan: bool
) -> Tuple[np.ndarray, int]:
    """``(codes, radix)`` over 0..n key columns: one integer code per row,
    ``0 <= codes < radix``, mixed radix over the columns' own codes."""
    code, radix = np.zeros(rows, dtype=np.int64), 1
    for values in columns:
        digit, base = _column_codes(values, equal_nan)
        if radix * base > _MAX_RADIX:
            code, radix = _densify(code)
            digit, base = _densify(digit)
        # radix 1 means every code so far is 0: the digit is the code.  A
        # digit may be a page file's narrow unsigned codes; the product is
        # taken in int64.
        if radix == 1:
            code = digit
        else:
            code = code.astype(np.int64, copy=False) * base + digit
        radix *= base
    return code, radix


def _sortable(codes: np.ndarray, radix: int) -> np.ndarray:
    """``codes`` in the narrowest unsigned dtype that holds ``radix``
    values: numpy's stable sort of 8- and 16-bit integers is a radix sort,
    several times faster than the merge sort ``int64`` gets."""
    if radix <= 1 << 8:
        return codes.astype(np.uint8, copy=False)
    if radix <= 1 << 16:
        return codes.astype(np.uint16, copy=False)
    return codes


#: The join types a ``Join`` plan node and :func:`hash_join` accept.
JOIN_TYPES = ("inner", "left-semi", "left-anti")


def _equi_pairs(
    lcodes: np.ndarray, rcodes: np.ndarray, radix: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(li, ri)`` with ``lcodes[li] == rcodes[ri]``; every code is
    in ``[0, radix)``.

    Pairs come left-major — ascending left row, and for one left row
    ascending right row — the order a probe of an insertion-ordered hash
    index in left-row order would emit them.
    """
    if radix > _MAX_TABLE_SLOTS_PER_ROW * (len(lcodes) + len(rcodes)):
        joint, radix = _densify(np.concatenate([lcodes, rcodes]))
        lcodes, rcodes = joint[: len(lcodes)], joint[len(lcodes) :]
    per_code = np.bincount(rcodes, minlength=radix)  # right rows per code
    counts = per_code[lcodes]
    matched = np.flatnonzero(counts)
    if per_code.max(initial=0) <= 1:
        # Unique right keys (every primary-key join): a code names its one
        # right row outright, and nothing needs sorting.
        row_of = np.empty(radix, dtype=np.intp)
        row_of[rcodes] = np.arange(len(rcodes))
        return matched, row_of[lcodes[matched]]
    lcodes, counts = lcodes[matched], counts[matched]
    # A code's right rows are a run of the right rows sorted (stably) by
    # code; output slot j of a left row reads sorted position run_start[its
    # code] + (j - start of its own run in the output).  Expand the per-row
    # shift, add slots.
    run_start = np.cumsum(per_code) - per_code
    order = np.argsort(_sortable(rcodes, radix), kind="stable")
    shift = np.repeat(run_start[lcodes] - (np.cumsum(counts) - counts), counts)
    shift += np.arange(len(shift))
    return np.repeat(matched, counts), order[shift]


def hash_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """The equi-join.  ``how`` is ``inner``, ``left-semi`` or ``left-anti``.

    Both sides' key columns are factorised *jointly* (so an ``int64`` key
    meets a ``float64`` key on value), then matched on codes.  A NaN key
    matches nothing, itself included: inner and semi joins drop the row,
    an anti join keeps it.

    Column-name collisions between the two inputs are a plan bug and raise
    :class:`PlanError` (for inner joins; semi/anti keep only left columns).
    """
    if len(left_keys) != len(right_keys):
        raise PlanError("join key lists must have equal length")
    if how not in JOIN_TYPES:
        raise PlanError(f"unsupported join type {how!r}")
    left_rows = batch_mod.num_rows(left)
    joint = [concat([left[lk], right[rk]]) for lk, rk in zip(left_keys, right_keys)]
    codes, radix = _factorize(
        joint, left_rows + batch_mod.num_rows(right), equal_nan=False
    )
    lcodes, rcodes = codes[:left_rows], codes[left_rows:]
    if how != "inner":
        matched = np.isin(lcodes, rcodes)
        return batch_mod.mask(left, matched if how == "left-semi" else ~matched)
    overlap = set(left) & set(right)
    if overlap:
        raise PlanError(f"join output would duplicate columns {sorted(overlap)}")
    li, ri = _equi_pairs(lcodes, rcodes, radix)
    out = batch_mod.take(left, li)
    out.update(batch_mod.take(right, ri))
    return out


def join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> Batch:
    """What the executor runs for a ``Join`` node: :func:`hash_join`.

    A function of its own because the benchmark tracer counts a plan's
    join rows at this name and times the kernel at the other.
    """
    return hash_join(left, right, left_keys, right_keys, how)


# Benchmark-contract names.  ``benchmarks/e2e/trace.py::TARGETS`` resolves
# these three beside ``hash_join`` and ``layers.py`` times one of them; the
# tracer rebinds aliases by ``id()``, so they must stay distinct function
# objects.  Nothing in ``src/`` calls them, and they go when a
# ``[benchmark]`` PR shrinks ``TARGETS``.
def sort_merge_join(left, right, left_keys, right_keys, how="inner"):
    """:func:`hash_join` (benchmark-contract name)."""
    return hash_join(left, right, left_keys, right_keys, how)


def index_nested_loop_join(left, right, left_keys, right_keys, how="inner"):
    """:func:`hash_join` (benchmark-contract name)."""
    return hash_join(left, right, left_keys, right_keys, how)


def block_nested_loop_join(left, right, left_keys, right_keys, how="inner"):
    """:func:`hash_join` (benchmark-contract name)."""
    return hash_join(left, right, left_keys, right_keys, how)


#: Aggregate spec: output name -> (function, input expression or None for count).
AggSpec = Dict[str, Tuple[str, Optional[Expr]]]

_AGG_FUNCS = ("sum", "min", "max", "count", "avg", "count_distinct")

#: The reduction behind each aggregate: over a whole column (no group
#: keys), and per group via ``ufunc.reduceat`` (``avg`` is sum / count).
_WHOLE_COLUMN = {"sum": np.sum, "min": np.min, "max": np.max, "avg": np.mean}
_PER_GROUP = {"sum": np.add, "avg": np.add, "min": np.minimum, "max": np.maximum}


def aggregate(batch: Batch, group_keys: Sequence[str], aggs: AggSpec) -> Batch:
    """Grouped (or, with no keys, global) aggregation.

    Groups come out in order of first appearance; NaN keys form one group.
    Integer and bool inputs sum in ``int64``.  **Float rule:** a group's
    ``sum`` adds its rows in input-row order (``avg`` is that sum over the
    count), so a result depends only on the input batch — identical
    across the plain / profiled / analyzed paths — but may differ in the
    last ulps (<= 1e-12 relative) from numpy's pairwise
    ``values[rows].sum()``.
    """
    for name, (func, expr) in aggs.items():
        if func not in _AGG_FUNCS:
            raise PlanError(f"unknown aggregate {func!r} for output {name!r}")
        if expr is None and func != "count":
            raise PlanError(f"aggregate {func!r} requires an input expression")
    rows = batch_mod.num_rows(batch)
    inputs = {
        name: (evaluate(expr, batch) if expr is not None else None)
        for name, (__, expr) in aggs.items()
    }
    if not group_keys:
        return {
            name: np.array([_fold_all(func, inputs[name], rows)])
            for name, (func, __) in aggs.items()
        }
    if rows == 0:
        out: Batch = {key: batch[key][:0] for key in group_keys}
        out.update({name: np.empty(0, dtype=object) for name in aggs})
        return out

    keys = [batch[key] for key in group_keys]
    code, radix = _factorize(keys, rows, equal_nan=True)
    # One stable sort puts each group's rows side by side, still in input
    # order; a run therefore starts at its group's first row, and ranking
    # the runs by that row is first-appearance order.
    code = _sortable(code, radix)
    order = np.argsort(code, kind="stable")
    ordered = code[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, rows))
    appearance = np.argsort(order[starts])
    first_rows = order[starts][appearance]

    out = batch_mod.take({key: batch[key] for key in group_keys}, first_rows)
    for name, (func, __) in aggs.items():
        values = inputs[name]
        if func == "count":
            per_run = counts
        elif func == "count_distinct":
            run = np.repeat(np.arange(len(starts)), counts)
            pair = _factorize([run, select(values, order)], rows, equal_nan=True)[0]
            __, pair_rows = np.unique(pair, return_index=True)
            per_run = np.bincount(run[pair_rows], minlength=len(starts))
        else:
            if func in ("sum", "avg") and values.dtype.kind in "biu":
                values = values.astype(np.int64)
            per_run = _widen(_PER_GROUP[func].reduceat(values[order], starts))
            if func == "avg":
                per_run = per_run / counts
        out[name] = per_run[appearance]
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
        if ascending:
            perm = np.argsort(values, kind="stable")
        else:
            # Stable descending: sort the reversed array ascending, then
            # reverse the permutation and map it back to input positions.
            perm = rows - 1 - np.argsort(values[::-1], kind="stable")[::-1]
        order = order[perm]
    return batch_mod.take(batch, order)


def limit(batch: Batch, count: int) -> Batch:
    """Keep the first ``count`` rows."""
    if count < 0:
        raise PlanError(f"LIMIT must not be negative, got {count}")
    return {name: values[:count] for name, values in batch.items()}


def _fold_all(func: str, values: Optional[np.ndarray], rows: int) -> Any:
    """One aggregate over the whole column (the global, no-keys case)."""
    if func == "count":
        return rows
    if func == "count_distinct":
        return len(np.unique(_column_codes(values, equal_nan=True)[0]))
    if rows == 0:
        return 0 if func == "sum" else None
    result = _WHOLE_COLUMN[func](values)
    return result.item() if isinstance(result, np.generic) else result


def _widen(values: np.ndarray) -> np.ndarray:
    """Per-group results in the engine's output dtypes: ``int64`` for
    integers, ``float64`` for floats; bools and objects as they are."""
    kind = values.dtype.kind
    if kind in "iu":
        return values.astype(np.int64, copy=False)
    if kind == "f":
        return values.astype(np.float64, copy=False)
    return values
