"""Tests for expression evaluation."""

import numpy as np
import pytest

from repro.common.errors import PlanError
from repro.engine.expressions import (
    BinOp,
    BoolOp,
    Case,
    Col,
    InList,
    Like,
    Lit,
    Not,
    Substr,
    Year,
    and_,
    evaluate,
    or_,
)
from repro.workloads.tpch.schema import date_days

BATCH = {
    "a": np.array([1, 2, 3, 4], dtype=np.int64),
    "b": np.array([1.5, 2.5, 3.5, 4.5]),
    "s": np.array(["apple", "banana", "cherry", "date"], dtype=object),
    "d": np.array(
        [date_days(1995, 3, 1), date_days(1996, 7, 4),
         date_days(1997, 12, 31), date_days(1998, 1, 1)],
        dtype=np.int64,
    ),
}


def test_col():
    np.testing.assert_array_equal(evaluate(Col("a"), BATCH), [1, 2, 3, 4])


def test_col_unknown_raises():
    with pytest.raises(PlanError, match="unknown column"):
        evaluate(Col("zzz"), BATCH)


def test_lit_broadcast_types():
    assert evaluate(Lit(7), BATCH).dtype == np.int64
    assert evaluate(Lit(7.0), BATCH).dtype == np.float64
    assert evaluate(Lit(True), BATCH).dtype == bool
    assert evaluate(Lit("x"), BATCH).dtype == object


@pytest.mark.parametrize(
    "op,expected",
    [
        ("+", [2.5, 4.5, 6.5, 8.5]),
        ("-", [-0.5, -0.5, -0.5, -0.5]),
        ("*", [1.5, 5.0, 10.5, 18.0]),
    ],
)
def test_arithmetic(op, expected):
    np.testing.assert_allclose(evaluate(BinOp(op, Col("a"), Col("b")), BATCH), expected)


def test_division():
    out = evaluate(BinOp("/", Col("b"), Col("a")), BATCH)
    np.testing.assert_allclose(out, [1.5, 1.25, 3.5 / 3, 1.125])


@pytest.mark.parametrize(
    "op,expected",
    [
        ("==", [False, True, False, False]),
        ("!=", [True, False, True, True]),
        ("<", [True, False, False, False]),
        ("<=", [True, True, False, False]),
        (">", [False, False, True, True]),
        (">=", [False, True, True, True]),
    ],
)
def test_comparisons(op, expected):
    np.testing.assert_array_equal(
        evaluate(BinOp(op, Col("a"), Lit(2)), BATCH), expected
    )


def test_string_comparison():
    out = evaluate(BinOp("==", Col("s"), Lit("banana")), BATCH)
    np.testing.assert_array_equal(out, [False, True, False, False])


def test_string_ordering():
    out = evaluate(BinOp("<", Col("s"), Lit("c")), BATCH)
    np.testing.assert_array_equal(out, [True, True, False, False])


def test_unknown_operator():
    with pytest.raises(PlanError, match="unknown binary operator"):
        evaluate(BinOp("%%", Col("a"), Lit(1)), BATCH)


def test_bool_and_or_not():
    gt1 = BinOp(">", Col("a"), Lit(1))
    lt4 = BinOp("<", Col("a"), Lit(4))
    np.testing.assert_array_equal(
        evaluate(and_(gt1, lt4), BATCH), [False, True, True, False]
    )
    np.testing.assert_array_equal(
        evaluate(or_(Not(gt1), Not(lt4)), BATCH), [True, False, False, True]
    )


def test_nary_and():
    expr = and_(
        BinOp(">", Col("a"), Lit(0)),
        BinOp(">", Col("a"), Lit(1)),
        BinOp(">", Col("a"), Lit(2)),
    )
    np.testing.assert_array_equal(evaluate(expr, BATCH), [False, False, True, True])


@pytest.mark.parametrize(
    "pattern,expected",
    [
        ("%an%", [False, True, False, False]),
        ("a%", [True, False, False, False]),
        ("%e", [True, False, False, True]),
        ("d_te", [False, False, False, True]),
        ("%", [True, True, True, True]),
        ("xyz", [False, False, False, False]),
    ],
)
def test_like(pattern, expected):
    np.testing.assert_array_equal(evaluate(Like(Col("s"), pattern), BATCH), expected)


def test_like_escapes_regex_metachars():
    batch = {"s": np.array(["a.c", "abc"], dtype=object)}
    np.testing.assert_array_equal(evaluate(Like(Col("s"), "a.c"), batch), [True, False])


def test_in_list_ints():
    np.testing.assert_array_equal(
        evaluate(InList(Col("a"), (2, 4)), BATCH), [False, True, False, True]
    )


def test_in_list_strings():
    np.testing.assert_array_equal(
        evaluate(InList(Col("s"), ("apple", "date")), BATCH),
        [True, False, False, True],
    )


def test_case():
    expr = Case(BinOp(">", Col("a"), Lit(2)), Lit(1.0), Lit(0.0))
    np.testing.assert_array_equal(evaluate(expr, BATCH), [0.0, 0.0, 1.0, 1.0])


def test_year():
    np.testing.assert_array_equal(
        evaluate(Year(Col("d")), BATCH), [1995, 1996, 1997, 1998]
    )


def test_substr():
    np.testing.assert_array_equal(
        evaluate(Substr(Col("s"), 1, 3), BATCH), ["app", "ban", "che", "dat"]
    )


def test_substr_mid():
    np.testing.assert_array_equal(
        evaluate(Substr(Col("s"), 2, 2), BATCH), ["pp", "an", "he", "at"]
    )


def test_empty_batch():
    empty = {"a": np.empty(0, dtype=np.int64)}
    assert len(evaluate(BinOp(">", Col("a"), Lit(0)), empty)) == 0


def test_year_matches_the_calendar_on_every_boundary():
    """``Year`` is datetime64 arithmetic on ordinal days; it must agree
    with ``datetime.date`` across leap years, centuries and before 1970."""
    import datetime

    days = np.array(
        [
            datetime.date(year, month, day).toordinal()
            for year in (1899, 1900, 1969, 1970, 1992, 1999, 2000, 2024, 2100)
            for month, day in ((1, 1), (2, 28), (3, 1), (12, 31))
        ],
        dtype=np.int64,
    )
    expected = [datetime.date.fromordinal(int(d)).year for d in days]
    out = evaluate(Year(Col("d")), {"d": days})
    assert out.dtype == np.int64
    assert out.tolist() == expected


@pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
def test_string_comparisons_follow_python_and_return_bool(op):
    import operator

    py_op = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}[op]
    left = np.array(["b", "a", "", "zz", "a"], dtype=object)
    right = np.array(["a", "a", "x", "z", "b"], dtype=object)
    out = evaluate(BinOp(op, Col("l"), Col("r")), {"l": left, "r": right})
    assert out.dtype == bool
    assert out.tolist() == [py_op(a, b) for a, b in zip(left, right)]


def test_like_and_substr_over_non_string_columns_use_str():
    batch = {"n": np.array([10, 215, 31], dtype=np.int64)}
    np.testing.assert_array_equal(
        evaluate(Like(Col("n"), "%1%"), batch), [True, True, True]
    )
    np.testing.assert_array_equal(
        evaluate(Like(Col("n"), "2%"), batch), [False, True, False]
    )
    out = evaluate(Substr(Col("n"), 1, 2), batch)
    assert out.dtype == object and out.tolist() == ["10", "21", "31"]
