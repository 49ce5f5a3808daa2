"""Expression trees and their vectorized evaluation.

The vocabulary covers what the TPC-H and LST-Bench workloads need:
column references, literals, arithmetic, comparisons, boolean connectives,
``LIKE`` patterns, ``IN`` lists and ``CASE WHEN``.  Dates are represented
as int64 epoch days throughout the engine, so date arithmetic and
comparisons are plain integer operations.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import PlanError
from repro.engine.batch import Batch


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
        left = _eval(expr.left, batch, rows)
        right = _eval(expr.right, batch, rows)
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
        # One regex call per string; once batches carry the page file's
        # dictionary codes (ROADMAP follow-on) this matches once per entry.
        values = _eval(expr.arg, batch, rows)
        match = _like_regex(expr.pattern).fullmatch
        return np.fromiter(
            map(bool, map(match, _as_strings(values))), dtype=bool, count=rows
        )
    if isinstance(expr, InList):
        values = _eval(expr.arg, batch, rows)
        if values.dtype.kind in ("i", "u", "f", "b"):
            return np.isin(values, expr.values)
        # One set probe per string; waits for dictionary-coded strings too.
        allowed = frozenset(expr.values)
        return np.fromiter(
            map(allowed.__contains__, values), dtype=bool, count=rows
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
        # One slice per string; waits for dictionary-coded strings too.
        values = _eval(expr.arg, batch, rows)
        lo = expr.start - 1
        piece = operator.itemgetter(slice(lo, lo + expr.length))
        return np.fromiter(
            map(piece, _as_strings(values)), dtype=object, count=rows
        )
    raise PlanError(f"unknown expression node {expr!r}")


def _broadcast(value: Any, rows: int) -> np.ndarray:
    if isinstance(value, bool):
        return np.full(rows, value, dtype=bool)
    if isinstance(value, int):
        return np.full(rows, value, dtype=np.int64)
    if isinstance(value, float):
        return np.full(rows, value, dtype=np.float64)
    return np.full(rows, value, dtype=object)


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


def _binop(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op in _ARITHMETIC:
        return _ARITHMETIC[op](left, right)
    if op in _COMPARISONS:
        # On object (string) columns the comparison ufuncs apply Python's
        # operator per element themselves and still return a bool array.
        return _COMPARISONS[op](left, right)
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
