"""ANALYZE statistics: collection, selectivity, versioning, feedback plumbing."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.engine.expressions import BinOp, Col, Lit
from repro.engine.planner import Aggregate, Join, TableScan
from repro.optimizer.cardinality import (
    PROVENANCE_DEFAULT,
    PROVENANCE_STATS,
    estimate_with_stats,
)
from repro.optimizer.statistics import (
    ColumnStatistics,
    TableStatistics,
    collect_column_statistics,
    equi_depth_bounds,
)
from repro.pagefile.schema import Field
from repro.sqldb import system_tables as catalog


def int_field(name="id"):
    return Field(name=name, type="int64")


def float_field(name="v"):
    return Field(name=name, type="float64")


class TestEquiDepthHistogram:
    def test_bounds_cover_sorted_values(self):
        bounds = equi_depth_bounds(list(range(1, 101)), 4)
        assert bounds == [25, 50, 75, 100]

    def test_last_bound_is_maximum(self):
        for buckets in (1, 3, 7, 16):
            bounds = equi_depth_bounds(list(range(10)), buckets)
            assert bounds[-1] == 9
            assert len(bounds) == buckets

    def test_empty_and_degenerate(self):
        assert equi_depth_bounds([], 8) == []
        assert equi_depth_bounds([5], 0) == []
        assert equi_depth_bounds([5], 4) == [5, 5, 5, 5]

    def test_skew_narrows_hot_buckets(self):
        # 90% of values are 7: most bucket bounds collapse onto it.
        values = sorted([7] * 90 + list(range(10)))
        bounds = equi_depth_bounds(values, 10)
        assert bounds.count(7) >= 8


class TestColumnCollection:
    def test_int_column(self):
        values = np.arange(100, dtype=np.int64)
        stats = collect_column_statistics(int_field(), values, buckets=8)
        assert stats.ndv == 100
        assert stats.null_fraction == 0.0
        assert stats.minimum == 0 and stats.maximum == 99
        assert len(stats.histogram) == 8
        assert stats.histogram[-1] == 99

    def test_float_nan_counts_as_null(self):
        values = np.array([1.0, 2.0, np.nan, np.nan], dtype=np.float64)
        stats = collect_column_statistics(float_field(), values, buckets=4)
        assert stats.null_fraction == pytest.approx(0.5)
        assert stats.ndv == 2
        assert stats.minimum == 1.0 and stats.maximum == 2.0

    def test_all_null_column(self):
        values = np.full(5, np.nan, dtype=np.float64)
        stats = collect_column_statistics(float_field(), values, buckets=4)
        assert stats.ndv == 0
        assert stats.minimum is None
        assert stats.histogram == []
        assert stats.selectivity("==", 1.0) == 0.0

    def test_string_column(self):
        values = np.array(["b", "a", "c", "a"], dtype=object)
        stats = collect_column_statistics(
            Field(name="s", type="string"), values, buckets=2
        )
        assert stats.ndv == 3
        assert stats.minimum == "a" and stats.maximum == "c"


class TestSelectivity:
    @pytest.fixture
    def uniform(self):
        values = np.arange(1, 101, dtype=np.int64)
        return collect_column_statistics(int_field(), values, buckets=10)

    def test_equality_is_one_over_ndv(self, uniform):
        assert uniform.selectivity("==", 42) == pytest.approx(0.01)

    def test_equality_outside_range_is_zero(self, uniform):
        assert uniform.selectivity("==", 0) == 0.0
        assert uniform.selectivity("==", 1000) == 0.0

    def test_inequality_complements_equality(self, uniform):
        assert uniform.selectivity("!=", 42) == pytest.approx(0.99)

    def test_range_interpolates_through_histogram(self, uniform):
        # ~30% of values are < 31; the equi-depth estimate is close.
        est = uniform.selectivity("<", 31)
        assert est == pytest.approx(0.30, abs=0.05)
        assert uniform.selectivity(">=", 31) == pytest.approx(1.0 - est)

    def test_range_is_monotone(self, uniform):
        cuts = [uniform.selectivity("<", c) for c in (10, 30, 50, 90)]
        assert cuts == sorted(cuts)

    def test_range_saturates_at_bounds(self, uniform):
        assert uniform.selectivity("<", -5) == 0.0
        assert uniform.selectivity("<=", 100) == pytest.approx(1.0)
        assert uniform.selectivity(">", 100) == pytest.approx(0.0)

    def test_nulls_scale_every_estimate(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, np.nan], dtype=np.float64)
        stats = collect_column_statistics(float_field(), values, buckets=4)
        assert stats.selectivity("==", 2.0) == pytest.approx(0.8 / 4)
        assert stats.selectivity("<=", 4.0) == pytest.approx(0.8)

    def test_unknown_operator_raises(self, uniform):
        from repro.common.errors import PlanError

        with pytest.raises(PlanError):
            uniform.selectivity("~", 1)


class TestRowRoundTrip:
    def test_to_row_from_row_is_identity(self):
        values = np.arange(50, dtype=np.int64)
        col = collect_column_statistics(int_field(), values, buckets=4)
        stats = TableStatistics(
            table_id=7,
            table_name="t",
            sequence_id=3,
            row_count=50,
            analyzed_at=12.5,
            source="analyze",
            feedback_factor=2.0,
            columns={"id": col},
        )
        row = stats.to_row()
        row["table_id"] = 7
        row["sequence_id"] = 3
        back = TableStatistics.from_row(row)
        assert back == stats


class TestAnalyzeStatement:
    def test_analyze_persists_versioned_row(self, warehouse, session):
        table_id = session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id",
        )
        session.insert(
            "t",
            {"id": np.arange(100, dtype=np.int64), "v": np.arange(100) * 1.0},
        )
        stats = session.analyze_table("t")
        assert stats.row_count == 100
        assert stats.source == "analyze"
        sequence = session.table_snapshot("t").sequence_id
        txn = warehouse.context.sqldb.begin()
        try:
            row = catalog.latest_table_stats(txn, table_id, sequence)
        finally:
            txn.abort()
        assert row is not None
        assert row["row_count"] == 100
        assert row["sequence_id"] == stats.sequence_id

    def test_reanalyze_versions_by_sequence(self, warehouse, session):
        table_id = session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id",
        )
        session.insert(
            "t", {"id": np.arange(10, dtype=np.int64), "v": np.zeros(10)}
        )
        first = session.analyze_table("t")
        session.insert(
            "t",
            {"id": np.arange(10, 30, dtype=np.int64), "v": np.zeros(20)},
        )
        second = session.analyze_table("t")
        assert second.sequence_id > first.sequence_id
        assert second.row_count == 30
        # Versioned resolution: a reader at the old sequence still sees
        # the statistics that described the data it reads.
        txn = warehouse.context.sqldb.begin()
        try:
            old = catalog.latest_table_stats(txn, table_id, first.sequence_id)
            new = catalog.latest_table_stats(txn, table_id, second.sequence_id)
        finally:
            txn.abort()
        assert old["row_count"] == 10
        assert new["row_count"] == 30

    def test_sql_analyze_and_dmv_row(self, session):
        session.sql("CREATE TABLE t (id bigint, v double)")
        session.sql("INSERT INTO t (id, v) VALUES (1, 1.0), (2, 2.0)")
        assert session.sql("ANALYZE t") == 2
        dmv = session.sql(
            "SELECT table_name, row_count, source, feedback_factor "
            "FROM sys.dm_table_stats"
        )
        assert list(dmv["table_name"]) == ["t"]
        assert int(dmv["row_count"][0]) == 2
        assert str(dmv["source"][0]) == "analyze"
        assert float(dmv["feedback_factor"][0]) == pytest.approx(1.0)

    def test_analyze_metrics_registered(self, config):
        config.telemetry.metering_enabled = True
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        session.sql("CREATE TABLE t (id bigint, v double)")
        session.sql("INSERT INTO t (id, v) VALUES (1, 1.0)")
        session.sql("ANALYZE t")
        names = session.sql("SELECT name FROM sys.dm_metrics")["name"]
        assert "optimizer.analyze.runs" in set(str(n) for n in names)


class TestStatsFreeEstimator:
    """``estimate_with_stats(plan, scan_rows, {})``: the one default path."""

    def estimate(self, plan, scan_rows):
        provenance = {}
        estimates = estimate_with_stats(
            plan,
            {id(scan): float(rows) for scan, rows in scan_rows},
            {},
            provenance=provenance,
        )
        return estimates, provenance

    def test_scan_charges_prune_default_once_per_conjunct(self):
        scan = TableScan(
            "t",
            ("id",),
            predicate=BinOp("<", Col("id"), Lit(50)),
            prune=(("id", ">=", 10), ("id", "<", 50)),
        )
        estimates, provenance = self.estimate(scan, [(scan, 1200)])
        # 1200 x 1/2 x 1/2 (two conjuncts) x 1/3 (residual predicate).
        assert estimates[id(scan)] == 100
        assert provenance[id(scan)] == PROVENANCE_DEFAULT

    def test_join_carries_larger_input_and_semi_anti_cap_at_left(self):
        small = TableScan("a", ("ak",))
        large = TableScan("b", ("bk",))
        rows = [(small, 10), (large, 1000)]
        for how, expected in (("inner", 1000), ("left-semi", 10), ("left-anti", 10)):
            join = Join(small, large, ("ak",), ("bk",), how=how)
            estimates, provenance = self.estimate(join, rows)
            assert estimates[id(join)] == expected, how
            assert provenance[id(join)] == PROVENANCE_DEFAULT

    def test_aggregates(self):
        scan = TableScan("t", ("g", "v"))
        grouped = Aggregate(scan, ("g",), {"n": ("count", None)})
        estimates, provenance = self.estimate(grouped, [(scan, 400)])
        assert estimates[id(grouped)] == 20  # sqrt(input) groups
        assert provenance[id(grouped)] == PROVENANCE_DEFAULT
        # A global aggregate emits exactly one row whatever is known.
        total = Aggregate(scan, (), {"n": ("count", None)})
        estimates, provenance = self.estimate(total, [(scan, 400)])
        assert estimates[id(total)] == 1
        assert provenance[id(total)] == PROVENANCE_STATS
        assert provenance[id(scan)] == PROVENANCE_DEFAULT


class TestExplainProvenance:
    def test_estimates_flip_default_to_stats(self, session):
        session.sql("CREATE TABLE t (id bigint, v double)")
        session.insert(
            "t",
            {"id": np.arange(90, dtype=np.int64), "v": np.zeros(90)},
        )
        before = session.sql("EXPLAIN ANALYZE SELECT id FROM t WHERE id < 30")
        assert "stats=default" in before
        assert "stats=stats" not in before
        session.sql("ANALYZE t")
        after = session.sql("EXPLAIN ANALYZE SELECT id FROM t WHERE id < 30")
        assert "stats=stats" in after
        assert "cost=" in after
