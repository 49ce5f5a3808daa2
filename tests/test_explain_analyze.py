"""EXPLAIN ANALYZE: executed, annotated operator trees."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Aggregate,
    BinOp,
    Col,
    Lit,
    Schema,
    SqlSession,
    TableScan,
    Warehouse,
    and_,
)
from repro.engine.planner import Filter, Project
from tests.conftest import small_config


@pytest.fixture
def dw() -> Warehouse:
    config = small_config()
    return Warehouse(config=config, auto_optimize=False)


def load(dw):
    session = dw.session()
    session.create_table(
        "t",
        Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
        sort_column="id",
    )
    # Several separate inserts -> several files, so file pruning can bite.
    for start in (0, 1000, 2000, 3000):
        session.insert(
            "t",
            {
                "id": np.arange(start, start + 100, dtype=np.int64),
                "v": np.arange(start, start + 100) * 1.0,
            },
        )
    return session


@pytest.fixture
def loaded(dw):
    return load(dw)


class TestExplainAnalyze:
    def plan(self):
        return Project(
            TableScan(
                "t",
                ("id", "v"),
                predicate=BinOp("<", Col("id"), Lit(50)),
                prune=(("id", "<", 50),),
            ),
            {"id": Col("id"), "v": Col("v")},
        )

    def test_batch_matches_plain_query(self, dw, loaded):
        plan = self.plan()
        expected = loaded.query(plan)
        result = loaded.explain_analyze(plan)
        np.testing.assert_array_equal(
            np.sort(result.batch["id"]), np.sort(expected["id"])
        )

    def test_text_reports_rows_time_and_pruning(self, dw, loaded):
        result = loaded.explain_analyze(self.plan())
        text = result.text
        assert "Scan t" in text
        assert "rows=50" in text
        assert "time=" in text
        # Each insert spread over 4 cells -> 16 files; only the first
        # insert's 4 files can contain id < 50.
        assert "files=4/16" in text
        assert "files_pruned=12" in text
        assert "row_groups=" in text

    def test_text_reports_estimates_and_misestimate_ratio(self, dw, loaded):
        plan = self.plan()
        result = loaded.explain_analyze(plan)
        # 400 live rows x 0.5 prune selectivity x 1/3 predicate
        # selectivity -> 67 estimated vs 50 actual, ratio 1.34x.
        assert "est=67" in result.text
        assert "ratio=1.34x" in result.text
        assert result.estimates[id(plan.child)] == 67
        assert result.estimates[id(plan)] == 67  # Project passes through

    def test_estimates_cover_every_operator(self, dw, loaded):
        plan = Aggregate(
            Filter(
                TableScan("t", ("id", "v")),
                BinOp(">", Col("v"), Lit(100.0)),
            ),
            (),
            {"n": ("count", None)},
        )
        result = loaded.explain_analyze(plan)
        assert result.estimates[id(plan.child.child)] == 400  # unfiltered scan
        assert result.estimates[id(plan.child)] == 133  # x 1/3 selectivity
        assert result.estimates[id(plan)] == 1  # global aggregate
        assert "est=1 " in result.text or "est=1)" in result.text

    def test_stats_per_operator(self, dw, loaded):
        plan = self.plan()
        result = loaded.explain_analyze(plan)
        scan_stats = result.stats_for(plan.child)
        assert scan_stats.rows == 50
        assert scan_stats.details["files_pruned"] == 12
        assert scan_stats.sim_time_s is not None and scan_stats.sim_time_s > 0
        project_stats = result.stats_for(plan)
        assert project_stats.rows == 50

    def test_aggregate_and_filter_annotated(self, dw, loaded):
        plan = Aggregate(
            Filter(
                TableScan("t", ("id", "v")),
                BinOp(">", Col("v"), Lit(100.0)),
            ),
            (),
            {"n": ("count", None)},
        )
        result = loaded.explain_analyze(plan)
        assert result.batch["n"][0] == 300
        assert "Aggregate" in result.text
        assert "Filter" in result.text
        filter_stats = result.stats_for(plan.child)
        assert filter_stats.rows == 300

    def test_clock_charged_like_query(self, dw, loaded):
        # A second warehouse with the same history, so both statements
        # start from the same clock and the same (cold) caches.
        twin = Warehouse(config=small_config(), auto_optimize=False)
        twin_session = load(twin)
        assert twin.clock.now == dw.clock.now
        plan = self.plan()
        loaded.explain_analyze(plan)
        twin_session.query(plan)
        assert dw.clock.now == twin.clock.now


class TestSqlExplain:
    def test_explain_returns_plan_without_executing(self, dw, loaded):
        sql = SqlSession(loaded)
        before = dw.clock.now
        text = sql.execute("EXPLAIN SELECT id, v FROM t WHERE id < 50")
        assert dw.clock.now == before  # plan only, nothing ran
        assert "Scan t" in text
        assert "rows=" not in text

    def test_explain_analyze_runs_and_annotates(self, dw, loaded):
        sql = SqlSession(loaded)
        text = sql.execute("EXPLAIN ANALYZE SELECT id, v FROM t WHERE id < 50")
        assert "rows=50" in text
        assert "files_pruned=12" in text
        assert "est=" in text
        assert "ratio=" in text

    def test_explain_is_case_insensitive(self, dw, loaded):
        sql = SqlSession(loaded)
        text = sql.execute("explain analyze select id from t")
        assert "rows=400" in text

    def test_explain_rejects_non_select(self, dw, loaded):
        from repro.sql.lexer import SqlSyntaxError

        sql = SqlSession(loaded)
        with pytest.raises(SqlSyntaxError):
            sql.execute("EXPLAIN DELETE FROM t")
