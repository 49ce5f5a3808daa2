"""The array kernels against the per-row reference, in order and by dtype.

``tests/reference_operators.py`` holds the per-row ``hash_join`` and
``aggregate`` the engine shipped before it was vectorised.  Every
benchmark-contract join callable × join type, ``operators.join``, and
every aggregate function, must reproduce
the reference **column by column, in row order, with equal dtypes and
column order** — not merely the same set of rows.  The two deliberate
departures (NaN keys, float summation order) have their own tests below.

A string column may carry a dictionary hint (``tests/dictionary_hints.py``).
The last sections demand that no operator's output depends on it, that
numpy operations outside the three hint helpers never leave a false hint
behind, and that the pair kernel agrees with a brute-force oracle on dense
and on sparse codes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError
from repro.engine import batch as batch_mod
from repro.engine import operators
from repro.engine.expressions import BinOp, Col, InList, Like, Lit, Substr
from repro.engine.planner import Join, Limit, TableScan
from repro.pagefile import encoding
from repro.pagefile.encoding import DictArray, concat, dict_array, select
from tests import reference_operators as reference
from tests.conftest import CONTRACT_JOINS
from tests.dictionary_hints import (
    assert_hint_consistent,
    hint_of,
    read_strings,
    string_batch,
    string_column,
    strip,
)

HOWS = ("inner", "left-semi", "left-anti")
ALGORITHMS = sorted(CONTRACT_JOINS)

#: Float SUM/AVG may differ from the reference's pairwise sums by this
#: relative error (the rule in ``operators.aggregate``); all else is exact.
FLOAT_SUM_RTOL = 1e-12

# -- generated batches ------------------------------------------------------------

#: Small domains, so both sides are full of duplicates; the right side's
#: domain is shifted, so each side has keys the other lacks.
_WORDS = ["", "a", "ab", "b", "brass", "Brass", "c", "zinc"]
_FLOATS = [-1.5, -0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 1e300]


def _key_values(kind, shift):
    """Strategy for one key value of ``kind``; ``shift`` moves the domain."""
    if kind in ("int64", "int32"):
        return st.integers(min_value=-2 + shift, max_value=3 + shift)
    if kind == "float64":
        return st.sampled_from(_FLOATS[shift:] + [float(4 + shift)])
    if kind == "bool":
        return st.booleans()
    return st.sampled_from(_WORDS[shift:] + [f"only{shift}"])


def _column(values, kind):
    dtype = object if kind == "string" else kind
    return np.array(values, dtype=dtype)


#: (left kind, right kind) per key position: same-typed pairs plus the
#: mixed int ⋈ float pair, which must match on value.
_KEY_PAIRS = [(k, k) for k in ("int64", "int32", "float64", "bool", "string")] + [
    ("int64", "float64"),
    ("float64", "int64"),
    ("int32", "int64"),
]


@st.composite
def join_inputs(draw):
    """Two batches with 1-3 key columns, duplicates, gaps and empties."""
    pairs = draw(st.lists(st.sampled_from(_KEY_PAIRS), min_size=1, max_size=3))
    left_rows = draw(st.integers(min_value=0, max_value=25))
    right_rows = draw(st.integers(min_value=0, max_value=25))
    left, right = {}, {}

    def column(kind, shift, rows):
        values = st.lists(_key_values(kind, shift), min_size=rows, max_size=rows)
        return _column(draw(values), kind)

    for position, (left_kind, right_kind) in enumerate(pairs):
        left[f"lk{position}"] = column(left_kind, 0, left_rows)
        right[f"rk{position}"] = column(right_kind, 2, right_rows)
    # Payloads name the input row, so output row order is checked too.
    left["lrow"] = np.arange(left_rows, dtype=np.int64)
    right["rrow"] = np.arange(right_rows, dtype=np.int64) * 10
    right["rname"] = np.array([f"r{i}" for i in range(right_rows)], dtype=object)
    left_keys = [f"lk{p}" for p in range(len(pairs))]
    right_keys = [f"rk{p}" for p in range(len(pairs))]
    return left, right, left_keys, right_keys


_VALUE_KINDS = ("int64", "int32", "float64", "bool", "string")


@st.composite
def aggregate_inputs(draw):
    """A batch with 1-3 group keys and one value column of each dtype."""
    kinds = draw(st.lists(st.sampled_from(_VALUE_KINDS), min_size=1, max_size=3))
    rows = draw(st.integers(min_value=0, max_value=40))

    def column(kind, values):
        return _column(draw(st.lists(values, min_size=rows, max_size=rows)), kind)

    batch = {
        f"g{position}": column(kind, _key_values(kind, 0))
        for position, kind in enumerate(kinds)
    }
    batch["v_int64"] = column("int64", st.integers(-(2**40), 2**40))
    batch["v_int32"] = column("int32", st.integers(2**31 - 50, 2**31 - 1))
    # Non-negative, so a sum cannot cancel and relative error is meaningful.
    batch["v_float64"] = column("float64", st.floats(min_value=0.0, max_value=1e9))
    batch["v_bool"] = column("bool", st.booleans())
    batch["v_string"] = column("string", st.sampled_from(_WORDS))
    return batch, [f"g{position}" for position in range(len(kinds))]


def aggregate_spec():
    """Every function over every value dtype it is defined on."""
    aggs = {"n": ("count", None)}
    for kind in _VALUE_KINDS:
        column = Col(f"v_{kind}")
        aggs[f"distinct_{kind}"] = ("count_distinct", column)
        aggs[f"min_{kind}"] = ("min", column)
        aggs[f"max_{kind}"] = ("max", column)
        if kind != "string":
            aggs[f"sum_{kind}"] = ("sum", column)
            aggs[f"avg_{kind}"] = ("avg", column)
    return aggs


# -- the comparison ---------------------------------------------------------------


def assert_same_batch(got, want, float_rtol_columns=()):
    """Column order, dtypes and in-order values all equal."""
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, (
            f"{name}: dtype {got[name].dtype} != {want[name].dtype}"
        )
        assert got[name].shape == want[name].shape, name
        if name in float_rtol_columns and want[name].dtype.kind == "f":
            np.testing.assert_allclose(
                got[name], want[name], rtol=FLOAT_SUM_RTOL, atol=0.0, err_msg=name
            )
        else:
            assert np.array_equal(got[name], want[name]), (
                f"{name}: {got[name]!r} != {want[name]!r}"
            )


# -- joins -------------------------------------------------------------------------


class TestJoinKernelMatchesReference:
    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=60, deadline=None)
    @given(inputs=join_inputs())
    def test_generated_batches(self, algorithm, how, inputs):
        left, right, left_keys, right_keys = inputs
        want = reference.hash_join(left, right, left_keys, right_keys, how)
        got = operators.join(left, right, left_keys, right_keys, how)
        assert_same_batch(got, want)
        direct = CONTRACT_JOINS[algorithm](left, right, left_keys, right_keys, how)
        assert_same_batch(direct, want)

    @pytest.mark.parametrize("how", HOWS)
    def test_key_spans_too_wide_for_offset_codes(self, how):
        """Three int64 keys spanning ~2**62 each overflow a mixed-radix
        product unless the factoriser re-densifies; one key spanning more
        than 2**62 cannot be offset-coded at all."""
        big = 2**61
        rng = np.random.default_rng(5)
        domain = np.array([-big, -7, 0, 7, big - 1], dtype=np.int64)
        left = {f"a{i}": domain[rng.integers(0, 5, 60)] for i in range(3)}
        right = {f"b{i}": domain[rng.integers(0, 5, 50)] for i in range(3)}
        left["lrow"] = np.arange(60)
        right["rrow"] = np.arange(50)
        for width in (1, 3):
            lk, rk = [f"a{i}" for i in range(width)], [f"b{i}" for i in range(width)]
            assert_same_batch(
                operators.hash_join(left, right, lk, rk, how),
                reference.hash_join(left, right, lk, rk, how),
            )
        wide_left = {"a": np.array([-(2**62), 2**62, 5, 2**62], dtype=np.int64)}
        wide_right = {"b": np.array([2**62, 5, 5, -(2**62) + 1], dtype=np.int64)}
        assert_same_batch(
            operators.hash_join(wide_left, wide_right, ["a"], ["b"], how),
            reference.hash_join(wide_left, wide_right, ["a"], ["b"], how),
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_keys_is_a_cross_join(self, algorithm):
        left = {"x": np.arange(3)}
        right = {"y": np.arange(2) * 10}
        got = CONTRACT_JOINS[algorithm](left, right, [], [], "inner")
        assert_same_batch(got, reference.hash_join(left, right, [], []))
        assert got["x"].tolist() == [0, 0, 1, 1, 2, 2]


class TestNanJoinKeys:
    """A NaN key matches nothing, itself included — under every name.

    At the parent commit the four "byte-identical" algorithms disagreed
    here: 1 row from hash/block_nl, 0 from sort_merge, 4 from index_nl.
    """

    LEFT = {"a": np.array([1.0, np.nan]), "lrow": np.array([0, 1])}
    RIGHT = {"b": np.array([np.nan, 1.0]), "rrow": np.array([0, 1])}

    def join(self, how, algorithm):
        return CONTRACT_JOINS[algorithm](self.LEFT, self.RIGHT, ["a"], ["b"], how)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_inner_drops_nan(self, algorithm):
        out = self.join("inner", algorithm)
        assert out["lrow"].tolist() == [0]
        assert out["rrow"].tolist() == [1]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_semi_drops_nan(self, algorithm):
        out = self.join("left-semi", algorithm)
        assert out["lrow"].tolist() == [0]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_anti_keeps_nan(self, algorithm):
        out = self.join("left-anti", algorithm)
        assert out["lrow"].tolist() == [1]

    @pytest.mark.parametrize("how,rows", zip(HOWS, ([0], [0], [1, 2])))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_nan_in_one_of_two_keys(self, algorithm, how, rows):
        left = {
            "a": np.array([1.0, np.nan, np.nan]),
            "c": np.array([7, 7, 8]),
            "lrow": np.arange(3),
        }
        right = {"b": np.array([np.nan, 1.0, np.nan]), "d": np.array([7, 7, 8])}
        out = CONTRACT_JOINS[algorithm](left, right, ["a", "c"], ["b", "d"], how)
        assert out["lrow"].tolist() == rows


# -- aggregation -------------------------------------------------------------------


class TestAggregateKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(inputs=aggregate_inputs())
    def test_generated_batches(self, inputs):
        batch, group_keys = inputs
        aggs = aggregate_spec()
        got = operators.aggregate(batch, group_keys, aggs)
        want = reference.aggregate(batch, group_keys, aggs)
        float_results = {n for n, (f, __) in aggs.items() if f in ("sum", "avg")}
        assert_same_batch(got, want, float_rtol_columns=float_results)

    def test_groups_come_in_first_appearance_order(self):
        batch = {
            "g": np.array(["m", "a", "m", "z", "a"], dtype=object),
            "h": np.array([2, 9, 2, 1, 9], dtype=np.int32),
            "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
        out = operators.aggregate(batch, ["g", "h"], {"s": ("sum", Col("v"))})
        assert out["g"].tolist() == ["m", "a", "z"]
        assert out["h"].tolist() == [2, 9, 1]
        assert out["h"].dtype == np.int32
        assert out["s"].tolist() == [4.0, 7.0, 4.0]

    def test_int32_sums_accumulate_in_int64(self):
        top = 2**31 - 1
        batch = {"g": np.zeros(4, dtype=np.int64), "v": np.full(4, top, dtype=np.int32)}
        out = operators.aggregate(
            batch, ["g"], {"s": ("sum", Col("v")), "a": ("avg", Col("v"))}
        )
        assert out["s"].dtype == np.int64 and out["s"].tolist() == [4 * top]
        assert out["a"].tolist() == [float(top)]

    def test_global_aggregates_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(2)
        batch = {"v": rng.random(1000), "s": np.array(_WORDS * 125, dtype=object)}
        aggs = {
            "total": ("sum", Col("v")),
            "mean": ("avg", Col("v")),
            "first": ("min", Col("s")),
            "kinds": ("count_distinct", Col("s")),
            "n": ("count", None),
        }
        assert_same_batch(
            operators.aggregate(batch, [], aggs), reference.aggregate(batch, [], aggs)
        )

    def test_float_sum_is_in_input_row_order(self):
        """The float rule: a group's sum adds its rows first to last, so
        it is a function of the batch alone (and of nothing else)."""
        rng = np.random.default_rng(9)
        batch = {"g": rng.integers(0, 7, 5000), "v": rng.random(5000) * 1e6}
        out = operators.aggregate(batch, ["g"], {"s": ("sum", Col("v"))})
        again = operators.aggregate(batch, ["g"], {"s": ("sum", Col("v"))})
        assert np.array_equal(out["s"], again["s"])
        for key, total in zip(out["g"].tolist(), out["s"].tolist()):
            rows = batch["v"][batch["g"] == key]
            assert total == pytest.approx(rows.sum(), rel=FLOAT_SUM_RTOL, abs=0.0)


class TestNanGroupKeys:
    """All NaN keys form one group (the parent made one group per NaN row,
    because a key tuple hashed each NaN by identity)."""

    def test_single_nan_key_column(self):
        batch = {
            "g": np.array([np.nan, 1.0, np.nan, 1.0, np.nan]),
            "v": np.array([1, 2, 3, 4, 5]),
        }
        out = operators.aggregate(
            batch, ["g"], {"n": ("count", None), "s": ("sum", Col("v"))}
        )
        assert len(out["g"]) == 2
        assert np.isnan(out["g"][0]) and out["g"][1] == 1.0
        assert out["n"].tolist() == [3, 2]
        assert out["s"].tolist() == [9, 6]

    def test_nan_beside_a_second_key(self):
        batch = {
            "g": np.array([np.nan, np.nan, np.nan]),
            "h": np.array(["x", "y", "x"], dtype=object),
        }
        out = operators.aggregate(batch, ["g", "h"], {"n": ("count", None)})
        assert out["h"].tolist() == ["x", "y"]
        assert out["n"].tolist() == [2, 1]


# -- limit -------------------------------------------------------------------------


class TestNegativeLimit:
    """``values[:-1]`` silently dropped the last row; now it is an error."""

    def test_operator_rejects_negative_count(self):
        with pytest.raises(PlanError, match="negative"):
            operators.limit({"a": np.arange(3)}, -1)
        assert operators.limit({"a": np.arange(3)}, 0)["a"].tolist() == []

    def test_plan_node_rejects_negative_count(self):
        with pytest.raises(PlanError, match="negative"):
            Limit(TableScan("t", ("a",)), -1)

    def test_sql_rejects_negative_limit(self, session, simple_table):
        from repro.common.errors import PolarisError

        with pytest.raises(PolarisError):
            session.sql("SELECT id FROM t LIMIT -1")
        assert len(session.sql("SELECT id FROM t LIMIT 3")["id"]) == 3


class TestInvalidJoin:
    """An unsupported join type or unequal key lists used to fail only
    inside the kernel — after both scans had run and been charged."""

    SCANS = (TableScan("a", ("k", "k2")), TableScan("b", ("rk",)))

    def test_plan_node_rejects_unknown_join_type(self):
        with pytest.raises(PlanError, match="unsupported join type 'outer'"):
            Join(*self.SCANS, ("k",), ("rk",), how="outer")

    def test_plan_node_rejects_unequal_key_lists(self):
        with pytest.raises(PlanError, match="equal length"):
            Join(*self.SCANS, ("k", "k2"), ("rk",))

    def test_kernel_keeps_its_own_checks(self):
        left, right = {"k": np.arange(3)}, {"rk": np.arange(3)}
        with pytest.raises(PlanError, match="unsupported join type"):
            operators.hash_join(left, right, ["k"], ["rk"], "outer")
        with pytest.raises(PlanError, match="equal length"):
            operators.hash_join(left, right, ["k"], [], "inner")


# -- dictionary hints ----------------------------------------------------------------


def _renamed(batch, suffix):
    return {f"{name}{suffix}": values for name, values in batch.items()}


class TestHintNeverChangesAnAnswer:
    """Every operator over hinted columns against the same columns
    stripped to plain arrays (and against the per-row reference where
    there is one): values, dtypes, row order and column order."""

    @settings(max_examples=120, deadline=None)
    @given(batch=string_batch(), word=st.sampled_from(["a", "brass", "日本", ""]))
    def test_filter_project_sort_limit(self, batch, word):
        plain = strip(batch)
        predicates = [
            BinOp("==", Col("s"), Lit(word)),
            BinOp(">=", Col("t"), Lit(word)),
            BinOp("!=", Col("s"), Col("t")),
            Like(Col("s"), "%a%"),
            InList(Substr(Col("t"), 1, 2), ("ab", "br", "日本", "")),
            Lit(True),
        ]
        for predicate in predicates:
            got = operators.filter_batch(batch, predicate)
            assert_same_batch(got, operators.filter_batch(plain, predicate))
            for values in got.values():
                assert_hint_consistent(values)
        outputs = {
            "s": Col("s"),
            "head": Substr(Col("s"), 1, 2),
            "same": BinOp("==", Col("s"), Col("t")),
            "lit": Lit("x"),
        }
        got = operators.project(batch, outputs)
        assert_same_batch(got, operators.project(plain, outputs))
        assert_hint_consistent(got["head"])
        for keys in ([("s", True)], [("t", False), ("s", True)]):
            assert_same_batch(operators.sort(batch, keys), operators.sort(plain, keys))
        assert_same_batch(operators.limit(batch, 3), operators.limit(plain, 3))

    @pytest.mark.parametrize("how", HOWS)
    @settings(max_examples=80, deadline=None)
    @given(left=string_batch(), right=string_batch(names=("s",)))
    def test_join_of_two_differently_dictionaried_columns(self, how, left, right):
        left, right = _renamed(left, "_l"), _renamed(right, "_r")
        for left_keys, right_keys in (
            (["s_l"], ["s_r"]),
            (["s_l", "t_l"], ["s_r", "s_r"]),
            (["s_l"], ["row_r"]),  # string ⋈ int: no row matches
            (["row_l", "t_l"], ["row_r", "s_r"]),
        ):
            got = operators.join(left, right, left_keys, right_keys, how)
            stripped = operators.join(
                strip(left), strip(right), left_keys, right_keys, how
            )
            assert_same_batch(got, stripped)
            assert_same_batch(
                got, reference.hash_join(left, right, left_keys, right_keys, how)
            )
            for values in got.values():
                assert_hint_consistent(values)

    @settings(max_examples=120, deadline=None)
    @given(batch=string_batch(names=("s", "t", "u")))
    def test_aggregate_every_function_grouped_by_strings(self, batch):
        aggs = {
            "n": ("count", None),
            "distinct": ("count_distinct", Col("u")),
            "distinct_head": ("count_distinct", Substr(Col("u"), 1, 1)),
            "low": ("min", Col("u")),
            "high": ("max", Col("u")),
            "total": ("sum", Col("x")),
            "mean": ("avg", Col("x")),
            "rows": ("sum", Col("row")),
        }
        for keys in (["s"], ["s", "t"], ["row", "t"], []):
            got = operators.aggregate(batch, keys, aggs)
            assert_same_batch(got, operators.aggregate(strip(batch), keys, aggs))
            assert_same_batch(
                got,
                reference.aggregate(batch, keys, aggs),
                float_rtol_columns={"total", "mean"},
            )

    def test_scanned_columns_mixing_dict_and_plain_row_groups(self):
        """Row group 1 is DICT (2 distinct of 4), row group 2 PLAIN (4 of
        4): the column comes back plain; all-DICT comes back hinted."""
        mixed = read_strings(["a", "b", "a", "b", "c", "d", "e", "f"], 4)
        assert hint_of(mixed) is None
        assert mixed.tolist() == ["a", "b", "a", "b", "c", "d", "e", "f"]
        both = read_strings(["a", "b", "a", "b", "c", "d", "c", "d"], 4)
        codes, dictionary = hint_of(both)
        assert dictionary.tolist() == ["a", "b", "c", "d"]
        assert codes.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
        batch = {"s": both, "row": np.arange(8)}
        out = operators.aggregate(batch, ["s"], {"n": ("count", None)})
        assert out["s"].tolist() == ["a", "b", "c", "d"]
        assert out["n"].tolist() == [2, 2, 2, 2]

    def test_dictionary_at_and_just_above_the_threshold(self):
        """NDV == rows / 2 is the last DICT chunk; one more is PLAIN."""
        at = read_strings(["a", "b", "c", "a", "b", "c"], 6)
        above = read_strings(["a", "b", "c", "d", "b", "c"], 6)
        assert hint_of(at) is not None and hint_of(above) is None

    def test_duplicate_entries_group_and_join_as_one_value(self):
        """``Substr`` maps distinct entries onto equal ones; equal values
        must still land in one group and match each other."""
        column = dict_array(
            np.array([0, 1, 2, 1, 0], dtype=np.uint8),
            np.array(["ab1", "ab2", "zz"], dtype=object),
        )
        batch = {"s": column, "row": np.arange(5)}
        projected = operators.project(
            batch, {"head": Substr(Col("s"), 1, 2), "row": Col("row")}
        )
        assert hint_of(projected["head"])[1].tolist() == ["ab", "ab", "zz"]
        out = operators.aggregate(projected, ["head"], {"n": ("count", None)})
        assert out["head"].tolist() == ["ab", "zz"] and out["n"].tolist() == [4, 1]
        other = {"k": np.array(["ab"], dtype=object)}
        joined = operators.hash_join(projected, other, ["head"], ["k"])
        assert joined["row"].tolist() == [0, 1, 3, 4]

    def test_a_dictionary_larger_than_the_column_falls_back_per_row(self):
        """A selective filter leaves few rows and the whole dictionary:
        the engine then ignores the hint (still the same answer)."""
        column = dict_array(
            np.array([5, 5, 9], dtype=np.uint8),
            np.array([f"w{i}" for i in range(10)], dtype=object),
        )
        assert batch_mod.dictionary_of(column) is None
        out = operators.aggregate({"s": column}, ["s"], {"n": ("count", None)})
        assert out["s"].tolist() == ["w5", "w9"] and out["n"].tolist() == [2, 1]


class TestHintHelpers:
    """``dict_array`` / ``select`` / ``concat`` keep the invariant; every
    other way of deriving an array drops the hint."""

    COLUMN_ARGS = (
        np.array([2, 0, 1, 0, 2, 2], dtype=np.uint8),
        np.array(["x", "żółć", ""], dtype=object),
    )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(min_value=0, max_value=20))
    def test_numpy_operations_never_leave_a_false_hint(self, data, rows):
        values = data.draw(string_column(rows))
        mask = np.arange(rows) % 2 == 0
        derived = [
            values[::2],
            values[mask],
            values[np.arange(rows)[::-1]],
            values.copy(),
            values.view(),
            values[:0],
            np.where(mask, values, values[::-1]),
            np.concatenate([values, values]),
            np.sort(values),
            values.astype(object),
            select(values, mask),
            select(values, np.flatnonzero(mask)),
            concat([values, values[::-1].copy(), values]),
        ]
        for result in derived:
            assert_hint_consistent(result)
        if hint_of(values) is not None:
            assert all(hint_of(result) is None for result in derived[:10])
            assert all(hint_of(result) is not None for result in derived[10:12])

    def test_inheriting_the_parents_codes_would_be_caught(self, monkeypatch):
        """Sabotage check: a ``__array_finalize__`` that copies the hint
        to derived arrays leaves ``values[::2]`` claiming six codes for
        three rows, and the consistency check above must say so."""

        def inherit(self, obj):
            self.codes = getattr(obj, "codes", None)
            self.dictionary = getattr(obj, "dictionary", None)

        monkeypatch.setattr(DictArray, "__array_finalize__", inherit)
        values = dict_array(*self.COLUMN_ARGS)
        with pytest.raises(AssertionError):
            assert_hint_consistent(values[::2])
        with pytest.raises(AssertionError):
            assert_hint_consistent(values[np.array([5, 0])])

    def test_iteration_yields_the_values(self):
        values = dict_array(*self.COLUMN_ARGS)
        assert list(values) == values.tolist() == ["", "x", "żółć", "x", "", ""]
        assert list(map(len, values[::2])) == [0, 4, 0]

    def test_assignment_drops_the_hint(self):
        values = dict_array(*self.COLUMN_ARGS)
        values[0] = "changed"
        assert hint_of(values) is None and values[0] == "changed"

    def test_concat_keeps_a_shared_dictionary_and_merges_different_ones(self):
        values = dict_array(*self.COLUMN_ARGS)
        halves = concat([select(values, np.arange(3)), select(values, np.arange(3, 6))])
        assert halves.dictionary is values.dictionary
        assert halves.codes.tolist() == values.codes.tolist()
        other = dict_array(
            np.array([0, 1], dtype=np.uint16), np.array(["new", "x"], dtype=object)
        )
        merged = concat([values, other])
        assert merged.dictionary.tolist() == ["x", "żółć", "", "new"]
        assert merged.codes.tolist() == [2, 0, 1, 0, 2, 2, 3, 0]
        assert merged.codes.dtype.itemsize <= 4
        assert merged.tolist() == values.tolist() + other.tolist()
        plain = np.array(["p"], dtype=object)
        assert hint_of(concat([values, plain])) is None
        assert concat([values, plain]).tolist() == values.tolist() + ["p"]
        assert concat([values]) is values

    def test_decoded_codes_do_not_alias_the_chunk_payload(self):
        items = np.array(["a", "b"] * 4, dtype=object)
        payload, __ = encoding.encode_column(
            encoding.Field("s", "string"), items
        )
        raw = encoding.inflate(payload)
        first = encoding.decode_column("string", raw, 8)
        assert first.codes.flags.owndata and first.codes.flags.writeable
        first.codes[:] = 1
        again = encoding.decode_column("string", raw, 8)
        assert again.codes.tolist() == [0, 1] * 4 and again.tolist() == items.tolist()


# -- the pair kernel -----------------------------------------------------------------


def _brute_force_pairs(lcodes, rcodes):
    pairs = [
        (li, ri)
        for li, left in enumerate(lcodes.tolist())
        for ri, right in enumerate(rcodes.tolist())
        if left == right
    ]
    li = np.array([pair[0] for pair in pairs], dtype=np.int64)
    ri = np.array([pair[1] for pair in pairs], dtype=np.int64)
    return li, ri


class TestEquiPairs:
    """``_equi_pairs`` against all-pairs comparison: left-major order,
    ascending right row, over dense codes (the table is used as is) and
    sparse ones (re-densified first), unique right codes and repeated."""

    @staticmethod
    def check(lcodes, rcodes, radix):
        li, ri = operators._equi_pairs(lcodes, rcodes, radix)
        want_li, want_ri = _brute_force_pairs(lcodes, rcodes)
        assert li.tolist() == want_li.tolist()
        assert ri.tolist() == want_ri.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        radix=st.sampled_from([1, 2, 7, 300, 70_000, 1 << 40, operators._MAX_RADIX]),
        left=st.lists(st.integers(0, 11), max_size=25),
        right=st.lists(st.integers(0, 11), max_size=25),
        unique_right=st.booleans(),
        width=st.sampled_from([np.uint8, np.int64]),
    )
    def test_generated_codes(self, radix, left, right, unique_right, width):
        # Twelve code values spread over [0, radix): dense for a small
        # radix, the int64 extremes for the largest.
        spread = np.unique(np.linspace(0, radix - 1, 12).astype(np.int64))
        if unique_right:
            right = sorted(set(right), reverse=True)
        dtype = width if radix <= 256 else np.int64
        lcodes = spread[np.array(left, dtype=np.int64) % len(spread)].astype(dtype)
        rcodes = spread[np.array(right, dtype=np.int64) % len(spread)].astype(dtype)
        self.check(lcodes, rcodes, radix)

    def test_int64_extremes_with_radix_far_above_the_rows(self):
        top = operators._MAX_RADIX - 1
        lcodes = np.array([top, 0, 5, top, 7], dtype=np.int64)
        rcodes = np.array([5, top, top, 0, 5], dtype=np.int64)
        self.check(lcodes, rcodes, operators._MAX_RADIX)

    def test_narrow_sort_widths(self):
        """Radix 256 sorts as ``uint8``, 65536 as ``uint16``, above that
        as it is — every width must give the same pairs."""
        rng = np.random.default_rng(3)
        for radix in (256, 257, 1 << 16, (1 << 16) + 1):
            lcodes = rng.integers(0, radix, 300)
            rcodes = np.concatenate([lcodes[:100], rng.integers(0, radix, 200)])
            self.check(lcodes, rcodes, radix)
