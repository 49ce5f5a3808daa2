"""Tests for the relational operators and the plan executor."""

import numpy as np
import pytest

from repro.common.errors import PlanError
from repro.engine.batch import concat_batches, from_rows, num_rows
from repro.engine.executor import dict_scan_source, execute_plan
from repro.engine.expressions import BinOp, Col, Lit
from repro.engine.operators import (
    aggregate,
    filter_batch,
    hash_join,
    limit,
    project,
    sort,
)
from repro.engine.planner import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Project,
    Sort,
    TableScan,
    scans_of,
    tables_of,
)

LEFT = from_rows(["k", "v"], [(1, 10.0), (2, 20.0), (2, 21.0), (3, 30.0)])
RIGHT = from_rows(["rk", "name"], [(1, "one"), (2, "two"), (4, "four")])


class TestFilterProject:
    def test_filter(self):
        out = filter_batch(LEFT, BinOp(">", Col("v"), Lit(15.0)))
        assert num_rows(out) == 3

    def test_filter_empty_input(self):
        empty = {"k": np.empty(0, dtype=np.int64)}
        assert num_rows(filter_batch(empty, BinOp(">", Col("k"), Lit(0)))) == 0

    def test_project_computes(self):
        out = project(LEFT, {"double": BinOp("*", Col("v"), Lit(2.0))})
        np.testing.assert_allclose(out["double"], [20, 40, 42, 60])

    def test_project_empty_input(self):
        empty = {"v": np.empty(0)}
        out = project(empty, {"x": Col("v")})
        assert num_rows(out) == 0
        assert "x" in out


class TestHashJoin:
    def test_inner_join(self):
        out = hash_join(LEFT, RIGHT, ["k"], ["rk"])
        assert num_rows(out) == 3
        assert set(out["name"]) == {"one", "two"}

    def test_inner_join_duplicates_multiply(self):
        dup_right = from_rows(["rk", "tag"], [(2, "x"), (2, "y")])
        out = hash_join(LEFT, dup_right, ["k"], ["rk"])
        assert num_rows(out) == 4  # two left rows × two right rows

    def test_multi_key_join(self):
        left = from_rows(["a", "b", "v"], [(1, 1, "x"), (1, 2, "y")])
        right = from_rows(["c", "d", "w"], [(1, 1, "m"), (1, 3, "n")])
        out = hash_join(left, right, ["a", "b"], ["c", "d"])
        assert num_rows(out) == 1
        assert out["v"][0] == "x"

    def test_semi_join(self):
        out = hash_join(LEFT, RIGHT, ["k"], ["rk"], how="left-semi")
        assert sorted(out["k"].tolist()) == [1, 2, 2]
        assert "name" not in out

    def test_anti_join(self):
        out = hash_join(LEFT, RIGHT, ["k"], ["rk"], how="left-anti")
        assert out["k"].tolist() == [3]

    def test_column_collision_rejected(self):
        with pytest.raises(PlanError, match="duplicate columns"):
            hash_join(LEFT, LEFT, ["k"], ["k"])

    def test_key_arity_mismatch_rejected(self):
        with pytest.raises(PlanError):
            hash_join(LEFT, RIGHT, ["k"], ["rk", "name"])

    def test_unknown_join_type(self):
        with pytest.raises(PlanError):
            hash_join(LEFT, RIGHT, ["k"], ["rk"], how="full-outer")

    def test_join_with_empty_side(self):
        empty = {"rk": np.empty(0, dtype=np.int64),
                 "name": np.empty(0, dtype=object)}
        assert num_rows(hash_join(LEFT, empty, ["k"], ["rk"])) == 0


class TestAggregate:
    def test_global_aggregates(self):
        out = aggregate(
            LEFT, [],
            {
                "total": ("sum", Col("v")),
                "n": ("count", None),
                "lo": ("min", Col("v")),
                "hi": ("max", Col("v")),
                "mean": ("avg", Col("v")),
            },
        )
        assert out["total"][0] == 81.0
        assert out["n"][0] == 4
        assert out["lo"][0] == 10.0
        assert out["hi"][0] == 30.0
        assert out["mean"][0] == pytest.approx(20.25)

    def test_grouped(self):
        out = aggregate(LEFT, ["k"], {"total": ("sum", Col("v"))})
        by_key = dict(zip(out["k"].tolist(), out["total"].tolist()))
        assert by_key == {1: 10.0, 2: 41.0, 3: 30.0}

    def test_count_distinct(self):
        batch = from_rows(["g", "x"], [(1, "a"), (1, "a"), (1, "b"), (2, "a")])
        out = aggregate(batch, ["g"], {"d": ("count_distinct", Col("x"))})
        by_key = dict(zip(out["g"].tolist(), out["d"].tolist()))
        assert by_key == {1: 2, 2: 1}

    def test_empty_input_global(self):
        empty = {"v": np.empty(0)}
        out = aggregate(empty, [], {"total": ("sum", Col("v")), "n": ("count", None)})
        assert out["total"][0] == 0
        assert out["n"][0] == 0

    def test_empty_input_grouped(self):
        empty = {"g": np.empty(0, dtype=np.int64), "v": np.empty(0)}
        out = aggregate(empty, ["g"], {"total": ("sum", Col("v"))})
        assert num_rows(out) == 0

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(PlanError, match="unknown aggregate"):
            aggregate(LEFT, [], {"x": ("median", Col("v"))})

    def test_count_requires_no_expr_but_others_do(self):
        with pytest.raises(PlanError):
            aggregate(LEFT, [], {"x": ("sum", None)})

    def test_aggregate_over_expression(self):
        out = aggregate(
            LEFT, [], {"t": ("sum", BinOp("*", Col("v"), Lit(10.0)))}
        )
        assert out["t"][0] == 810.0


class TestSortLimit:
    def test_sort_ascending(self):
        out = sort(LEFT, [("v", True)])
        assert out["v"].tolist() == [10.0, 20.0, 21.0, 30.0]

    def test_sort_descending(self):
        out = sort(LEFT, [("v", False)])
        assert out["v"][0] == 30.0

    def test_multi_key_sort(self):
        batch = from_rows(["a", "b"], [(2, 1), (1, 2), (2, 0), (1, 1)])
        out = sort(batch, [("a", True), ("b", True)])
        assert list(zip(out["a"].tolist(), out["b"].tolist())) == [
            (1, 1), (1, 2), (2, 0), (2, 1)
        ]

    @pytest.mark.parametrize("as_object", [False, True])
    @pytest.mark.parametrize("minor_ascending", [True, False])
    @pytest.mark.parametrize("major_ascending", [True, False])
    def test_multi_key_sort_with_duplicate_major_keys(
        self, major_ascending, minor_ascending, as_object
    ):
        # Every major key repeats, so a descending pass that reverses
        # ties would scramble the minor key inside each group.
        rows = [(a, b) for b in (2, 0, 3, 1) for a in (1, 3, 2)]
        if as_object:
            rows = [(f"k{a}", f"k{b}") for a, b in rows]
        batch = from_rows(["a", "b"], rows)
        assert (batch["a"].dtype.kind == "O") == as_object
        out = sort(batch, [("a", major_ascending), ("b", minor_ascending)])
        expected = sorted(rows, key=lambda r: r[1], reverse=not minor_ascending)
        expected.sort(key=lambda r: r[0], reverse=not major_ascending)
        assert list(zip(out["a"].tolist(), out["b"].tolist())) == expected

    def test_descending_sort_keeps_ties_in_input_order(self):
        batch = from_rows(["k", "pos"], [(1, 0), (2, 1), (1, 2), (2, 3)])
        out = sort(batch, [("k", False)])
        assert out["pos"].tolist() == [1, 3, 0, 2]

    def test_sort_strings(self):
        out = sort(RIGHT, [("name", True)])
        assert out["name"].tolist() == ["four", "one", "two"]

    def test_sort_empty(self):
        empty = {"v": np.empty(0)}
        assert num_rows(sort(empty, [("v", True)])) == 0

    def test_limit(self):
        assert num_rows(limit(LEFT, 2)) == 2
        assert num_rows(limit(LEFT, 100)) == 4


class TestBatchHelpers:
    def test_concat(self):
        out = concat_batches([LEFT, LEFT])
        assert num_rows(out) == 8

    def test_concat_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            concat_batches([LEFT, RIGHT])

    def test_concat_empty_list(self):
        assert concat_batches([]) == {}


class TestExecutor:
    def source(self):
        return dict_scan_source({"l": LEFT, "r": RIGHT})

    def test_full_pipeline(self):
        plan = Limit(
            Sort(
                Aggregate(
                    Join(
                        TableScan("l", ("k", "v")),
                        TableScan("r", ("rk", "name")),
                        ("k",), ("rk",),
                    ),
                    ("name",),
                    {"total": ("sum", Col("v"))},
                ),
                (("total", False),),
            ),
            1,
        )
        out = execute_plan(plan, self.source())
        assert out["name"][0] == "two"
        assert out["total"][0] == 41.0

    def test_scan_projection_enforced(self):
        out = execute_plan(TableScan("l", ("k",)), self.source())
        assert list(out) == ["k"]

    def test_scan_missing_column_rejected(self):
        with pytest.raises(PlanError, match="missing columns"):
            execute_plan(TableScan("l", ("ghost",)), self.source())

    def test_filter_project_nodes(self):
        plan = Project(
            Filter(TableScan("l", ("k", "v")), BinOp("==", Col("k"), Lit(2))),
            {"vv": BinOp("+", Col("v"), Lit(1.0))},
        )
        out = execute_plan(plan, self.source())
        assert out["vv"].tolist() == [21.0, 22.0]

    def test_scans_of_and_tables_of(self):
        plan = Join(
            TableScan("l", ("k",)), TableScan("r", ("rk",)), ("k",), ("rk",)
        )
        assert [s.table for s in scans_of(plan)] == ["l", "r"]
        assert tables_of(Join(plan, TableScan("l2", ("x",)), ("k",), ("x",))) == [
            "l", "r", "l2"
        ]
