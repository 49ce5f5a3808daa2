"""The array kernels against the per-row reference, in order and by dtype.

``tests/reference_operators.py`` holds the per-row ``hash_join`` and
``aggregate`` the engine shipped before it was vectorised.  Every
benchmark-contract join callable × join type, ``operators.join``, and
every aggregate function, must reproduce
the reference **column by column, in row order, with equal dtypes and
column order** — not merely the same set of rows.  The two deliberate
departures (NaN keys, float summation order) have their own tests below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError
from repro.engine import operators
from repro.engine.expressions import Col
from repro.engine.planner import Join, Limit, TableScan
from tests import reference_operators as reference
from tests.conftest import CONTRACT_JOINS

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
