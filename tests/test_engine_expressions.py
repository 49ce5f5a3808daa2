"""Tests for expression evaluation."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tests.dictionary_hints import (
    WORDS,
    assert_hint_consistent,
    hint_of,
    read_strings,
    string_batch,
    strip,
)

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


# -- literals -------------------------------------------------------------------------


class TestLiteralTyping:
    """A literal is typed by numpy's own rule for the value, Python or numpy
    scalar alike; at the parent ``isinstance(value, int)`` missed
    ``np.int64`` and the whole result column went ``object``."""

    @pytest.mark.parametrize(
        "value,dtype",
        [
            (np.int64(2), np.int64),
            (np.float64(2.0), np.float64),
            (np.bool_(True), np.bool_),
            (2, np.int64),
            (2.0, np.float64),
            (True, np.bool_),
        ],
    )
    def test_numpy_scalar_literals_keep_their_dtype(self, value, dtype):
        assert evaluate(Lit(value), BATCH).dtype == dtype
        product = evaluate(BinOp("*", Col("a"), Lit(value)), BATCH)
        assert product.dtype == (BATCH["a"] * np.full(4, value)).dtype
        assert product.dtype != object
        assert product.tolist() == (BATCH["a"] * value).tolist()

    def test_the_natural_plan_api_idiom(self):
        """``Lit(result["n"][0])`` — a literal taken from a result."""
        count = np.array([3], dtype=np.int64)[0]
        out = evaluate(BinOp("*", Col("a"), Lit(count)), BATCH)
        assert out.dtype == np.int64 and out.tolist() == [3, 6, 9, 12]
        assert out.sum().dtype == np.int64

    def test_an_int_literal_still_widens_a_narrow_column(self):
        """``int32 * Lit(2)`` was ``int32 * int64 column``: ``int64``."""
        batch = {"n": np.array([2**30, 5], dtype=np.int32)}
        out = evaluate(BinOp("*", Col("n"), Lit(4)), batch)
        assert out.dtype == np.int64 and out.tolist() == [2**32, 20]
        assert evaluate(BinOp("/", Col("n"), Lit(2)), batch).dtype == np.float64
        assert evaluate(BinOp("+", Col("n"), Lit(0.5)), batch).dtype == np.float64

    def test_literal_op_literal_is_a_column(self):
        out = evaluate(BinOp("+", Lit(1), Lit(2)), BATCH)
        assert out.dtype == np.int64 and out.tolist() == [3, 3, 3, 3]
        out = evaluate(BinOp("<", Lit(1.5), Lit(np.int64(2))), BATCH)
        assert out.dtype == bool and out.tolist() == [True] * 4
        out = evaluate(BinOp("+", Lit("a"), Lit("b")), BATCH)
        assert out.dtype == object and out.tolist() == ["ab"] * 4
        assert len(evaluate(BinOp("+", Lit(1), Lit(2)), {"a": BATCH["a"][:0]})) == 0

    def test_bare_literals_in_project_and_as_a_filter(self):
        from repro.engine import operators

        out = operators.project(
            BATCH, {"one": Lit(np.int64(1)), "name": Lit("x"), "half": Lit(0.5)}
        )
        assert [out[name].dtype for name in out] == [np.int64, object, np.float64]
        assert out["name"].tolist() == ["x"] * 4
        kept = operators.filter_batch(BATCH, Lit(True))
        assert kept["a"].tolist() == [1, 2, 3, 4]
        assert operators.filter_batch(BATCH, Lit(np.bool_(False)))["a"].tolist() == []

    def test_a_literal_on_the_left(self):
        out = evaluate(BinOp("-", Lit(10), Col("a")), BATCH)
        assert out.dtype == np.int64 and out.tolist() == [9, 8, 7, 6]
        out = evaluate(BinOp(">", Lit("banana"), Col("s")), BATCH)
        assert out.tolist() == [True, False, False, False]


# -- dictionary hints -----------------------------------------------------------------

_PY_COMPARE = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _like_oracle(value, pattern):
    """``LIKE`` by recursion on the pattern, without ``re``."""
    if not pattern:
        return not value
    if pattern[0] == "%":
        return any(
            _like_oracle(value[skip:], pattern[1:]) for skip in range(len(value) + 1)
        )
    return bool(value) and pattern[0] in ("_", value[0]) and _like_oracle(
        value[1:], pattern[1:]
    )


class TestStringExpressionsIgnoreTheHint:
    """Every string expression over hinted columns, over the same columns
    stripped, and by a per-row Python oracle: same values, same dtype."""

    @staticmethod
    def check(expr, batch, oracle):
        got = evaluate(expr, batch)
        plain = evaluate(expr, strip(batch))
        assert type(plain) is np.ndarray
        assert got.dtype == plain.dtype, expr
        assert got.tolist() == plain.tolist(), expr
        assert got.tolist() == oracle, expr
        assert_hint_consistent(got)

    @settings(max_examples=150, deadline=None)
    @given(
        batch=string_batch(),
        word=st.sampled_from(WORDS),
        op=st.sampled_from(sorted(_PY_COMPARE)),
    )
    def test_comparisons(self, batch, word, op):
        left, right = batch["s"].tolist(), batch["t"].tolist()
        compare = _PY_COMPARE[op]
        self.check(
            BinOp(op, Col("s"), Lit(word)), batch, [compare(v, word) for v in left]
        )
        self.check(
            BinOp(op, Lit(word), Col("s")), batch, [compare(word, v) for v in left]
        )
        self.check(
            BinOp(op, Col("s"), Col("t")),
            batch,
            [compare(a, b) for a, b in zip(left, right)],
        )
        self.check(
            BinOp(op, Substr(Col("s"), 2, 2), Lit(word[:2])),
            batch,
            [compare(v[1:3], word[:2]) for v in left],
        )

    @settings(max_examples=150, deadline=None)
    @given(
        batch=string_batch(),
        pattern=st.sampled_from(
            ["%", "", "a%", "%a%", "_", "a_c", "%本%", "brass", "%s%s", "__%"]
        ),
        allowed=st.lists(st.sampled_from(WORDS), max_size=4),
        start=st.integers(min_value=1, max_value=4),
        length=st.integers(min_value=0, max_value=3),
    )
    def test_like_in_list_substr_case(self, batch, pattern, allowed, start, length):
        values = batch["s"].tolist()
        self.check(
            Like(Col("s"), pattern), batch, [_like_oracle(v, pattern) for v in values]
        )
        self.check(
            InList(Col("s"), tuple(allowed)), batch, [v in allowed for v in values]
        )
        pieces = [v[start - 1 : start - 1 + length] for v in values]
        self.check(Substr(Col("s"), start, length), batch, pieces)
        self.check(
            Like(Substr(Col("s"), start, length), pattern),
            batch,
            [_like_oracle(piece, pattern) for piece in pieces],
        )
        self.check(
            Case(InList(Col("s"), tuple(allowed)), Col("s"), Col("t")),
            batch,
            [a if a in allowed else b for a, b in zip(values, batch["t"].tolist())],
        )
        self.check(
            Case(Like(Col("s"), pattern), Lit("hit"), Substr(Col("t"), 1, 1)),
            batch,
            [
                "hit" if _like_oracle(a, pattern) else b[:1]
                for a, b in zip(values, batch["t"].tolist())
            ],
        )

    def test_substr_of_a_hinted_column_is_hinted(self):
        column = read_strings(["ab1", "ab2", "zz", "ab1", "ab2", "zz"], 6)
        out = evaluate(Substr(Col("s"), 1, 2), {"s": column})
        codes, dictionary = hint_of(out)
        assert dictionary.tolist() == ["ab", "ab", "zz"]
        assert out.tolist() == ["ab", "ab", "zz", "ab", "ab", "zz"]
