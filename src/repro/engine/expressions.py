"""Expression trees and their vectorized evaluation.

The vocabulary covers what the TPC-H and LST-Bench workloads need:
column references, literals, arithmetic, comparisons, boolean connectives,
``LIKE`` patterns, ``IN`` lists and ``CASE WHEN``.  Dates are represented
as int64 epoch days throughout the engine, so date arithmetic and
comparisons are plain integer operations.

Anything that is a function of each string alone — ``LIKE``, ``IN``,
``SUBSTRING``, a comparison against a literal — is computed once per
dictionary entry and gathered through the codes when the column carries
a dictionary hint (:func:`repro.engine.batch.dictionary_of`), and once
per row, as ever, when it does not.  A literal under a ``BinOp`` stays a
numpy scalar and is broadcast by the ufunc itself; only a bare literal
becomes a column.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import PlanError
from repro.engine.batch import Batch, dictionary_of
from repro.pagefile.encoding import dict_array


@dataclass(frozen=True)
class Col:
    """Reference to a column of the input batch."""

    name: str


@dataclass(frozen=True)
class Lit:
    """A literal constant."""

    value: Any


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic or comparison: ``left <op> right``."""

    op: str  # + - * / == != < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOp:
    """N-ary boolean connective over predicate children."""

    op: str  # "and" | "or"
    args: Tuple["Expr", ...]


@dataclass(frozen=True)
class Not:
    """Boolean negation."""

    arg: "Expr"


@dataclass(frozen=True)
class Like:
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards over a string column."""

    arg: "Expr"
    pattern: str


@dataclass(frozen=True)
class InList:
    """SQL ``IN`` against a literal list."""

    arg: "Expr"
    values: Tuple[Any, ...]


@dataclass(frozen=True)
class Case:
    """``CASE WHEN cond THEN then ELSE orelse END``."""

    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@dataclass(frozen=True)
class Year:
    """Extract the calendar year from an ordinal-days date column."""

    arg: "Expr"


@dataclass(frozen=True)
class Substr:
    """SQL ``SUBSTRING(arg, start, length)`` (1-based start) over strings."""

    arg: "Expr"
    start: int
    length: int


Expr = Union[Col, Lit, BinOp, BoolOp, Not, Like, InList, Case, Year, Substr]

#: ``date.toordinal()`` of 1970-01-01, the zero of numpy's ``datetime64``.
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def and_(*args: Expr) -> Expr:
    """Convenience n-ary AND."""
    return BoolOp("and", tuple(args))


def or_(*args: Expr) -> Expr:
    """Convenience n-ary OR."""
    return BoolOp("or", tuple(args))


def evaluate(expr: Expr, batch: Batch) -> np.ndarray:
    """Evaluate an expression over a batch, returning a column array."""
    rows = _batch_rows(batch)
    return _eval(expr, batch, rows)


def _batch_rows(batch: Batch) -> int:
    for values in batch.values():
        return len(values)
    return 0


def _eval(expr: Expr, batch: Batch, rows: int) -> np.ndarray:
    if isinstance(expr, Col):
        try:
            return batch[expr.name]
        except KeyError:
            raise PlanError(
                f"unknown column {expr.name!r}; have {sorted(batch)}"
            ) from None
    if isinstance(expr, Lit):
        return _broadcast(expr.value, rows)
    if isinstance(expr, BinOp):
        left = _operand(expr.left, batch, rows)
        right = _operand(expr.right, batch, rows)
        if not (isinstance(left, np.ndarray) or isinstance(right, np.ndarray)):
            left = _broadcast(left, rows)
        return _binop(expr.op, left, right)
    if isinstance(expr, BoolOp):
        parts = [_as_bool(_eval(arg, batch, rows)) for arg in expr.args]
        out = parts[0]
        for part in parts[1:]:
            out = (out & part) if expr.op == "and" else (out | part)
        return out
    if isinstance(expr, Not):
        return ~_as_bool(_eval(expr.arg, batch, rows))
    if isinstance(expr, Like):
        match = _like_regex(expr.pattern).fullmatch
        return _per_entry(
            _eval(expr.arg, batch, rows),
            lambda strings: np.fromiter(
                map(bool, map(match, _as_strings(strings))),
                dtype=bool,
                count=len(strings),
            ),
        )
    if isinstance(expr, InList):
        values = _eval(expr.arg, batch, rows)
        if values.dtype.kind in ("i", "u", "f", "b"):
            return np.isin(values, expr.values)
        allowed = frozenset(expr.values)
        return _per_entry(
            values,
            lambda strings: np.fromiter(
                map(allowed.__contains__, strings), dtype=bool, count=len(strings)
            ),
        )
    if isinstance(expr, Case):
        cond = _as_bool(_eval(expr.cond, batch, rows))
        then = _eval(expr.then, batch, rows)
        orelse = _eval(expr.orelse, batch, rows)
        return np.where(cond, then, orelse)
    if isinstance(expr, Year):
        days = _eval(expr.arg, batch, rows).astype(np.int64) - _EPOCH_ORDINAL
        years = days.astype("datetime64[D]").astype("datetime64[Y]")
        return years.astype(np.int64) + 1970
    if isinstance(expr, Substr):
        values = _eval(expr.arg, batch, rows)
        lo = expr.start - 1
        piece = operator.itemgetter(slice(lo, lo + expr.length))

        def pieces(strings: np.ndarray) -> np.ndarray:
            return np.fromiter(
                map(piece, _as_strings(strings)), dtype=object, count=len(strings)
            )

        hint = dictionary_of(values)
        if hint is None:
            return pieces(values)
        # Entries that differ only past the slice become equal entries,
        # which the hint allows.
        codes, dictionary = hint
        return dict_array(codes, pieces(dictionary))
    raise PlanError(f"unknown expression node {expr!r}")


def _broadcast(value: Any, rows: int) -> np.ndarray:
    """A bare literal as a column: a ``str`` in ``object`` dtype, anything
    else in the dtype numpy gives the value itself — ``int64`` /
    ``float64`` / ``bool`` for Python and numpy scalars alike."""
    return np.full(rows, value, dtype=object if isinstance(value, str) else None)


#: The numpy scalar type of each Python scalar, as :func:`_broadcast`
#: types its column.
_SCALAR_TYPES = {bool: np.bool_, int: np.int64, float: np.float64}


def _operand(expr: Expr, batch: Batch, rows: int) -> Any:
    """A ``BinOp`` operand: a literal stays a scalar for the ufunc to
    broadcast, typed as its column would be (a bare Python ``2`` would
    leave an ``int32`` column ``int32``; ``np.int64(2)`` promotes it
    exactly as the ``int64`` column did)."""
    if isinstance(expr, Lit):
        value = expr.value
        cast = _SCALAR_TYPES.get(type(value))
        return value if cast is None else cast(value)
    return _eval(expr, batch, rows)


def _per_entry(values: np.ndarray, compute: Any) -> np.ndarray:
    """``compute(values)`` for a ``compute`` that maps each string on its
    own: over the dictionary entries, then gathered through the codes,
    when ``values`` carries a dictionary hint."""
    hint = dictionary_of(values)
    if hint is None:
        return compute(values)
    codes, dictionary = hint
    return compute(dictionary)[codes]


_COMPARISONS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ARITHMETIC = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


def _binop(op: str, left: Any, right: Any) -> np.ndarray:
    """``left <op> right`` where at most one side is a scalar."""
    if op in _ARITHMETIC:
        return _ARITHMETIC[op](left, right)
    if op in _COMPARISONS:
        # On object (string) columns the comparison ufuncs apply Python's
        # operator per element themselves and still return a bool array —
        # per dictionary entry when the other side is a literal.
        compare = _COMPARISONS[op]
        left_is_column = isinstance(left, np.ndarray)
        if left_is_column and isinstance(right, np.ndarray):
            return compare(left, right)
        hint = dictionary_of(left if left_is_column else right)
        if hint is None:
            return compare(left, right)
        codes, dictionary = hint
        if left_is_column:
            return compare(dictionary, right)[codes]
        return compare(left, dictionary)[codes]
    raise PlanError(f"unknown binary operator {op!r}")


def _as_strings(values: np.ndarray) -> np.ndarray:
    """String operands as they are; anything else by its ``str()``."""
    return values if values.dtype.kind == "O" else values.astype(str)


def _as_bool(values: np.ndarray) -> np.ndarray:
    if values.dtype == bool:
        return values
    return values.astype(bool)


def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(regex, re.DOTALL)
