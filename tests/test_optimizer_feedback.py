"""Query-store cardinality feedback and plan-choice determinism."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.optimizer import cardinality
from repro.optimizer import manager as optimizer_manager
from repro.optimizer.statistics import collect_column_statistics
from repro.engine.planner import TableScan
from repro.pagefile.schema import Field

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def rows(n):
    ids = np.arange(n, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


#: ``WHERE id >= 0`` matches every row but the default estimator prices
#: it as prune (1/2) times predicate (1/3): est ~ rows/6, so the store
#: records a ~6x misestimate on the scan.
EXPECTED_FACTOR = 100 / 17


def feedback_warehouse(config):
    config.telemetry.query_store_enabled = True
    return Warehouse(config=config, auto_optimize=False)


class TestFeedbackFactor:
    def test_misestimates_fold_into_next_analyze(self, config):
        dw = feedback_warehouse(config)
        session = dw.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(100))
        for _ in range(4):
            out = session.sql("SELECT v FROM t WHERE id >= 0")
            assert len(out["v"]) == 100
        stats = session.analyze_table("t")
        assert stats.feedback_factor == pytest.approx(EXPECTED_FACTOR, rel=0.05)
        dmv = session.sql("SELECT feedback_factor FROM sys.dm_table_stats")
        assert float(dmv["feedback_factor"][0]) == pytest.approx(
            stats.feedback_factor
        )

    def test_factor_stays_one_below_threshold(self, config, monkeypatch):
        # ~6x doesn't qualify
        monkeypatch.setattr(optimizer_manager, "MISESTIMATE_THRESHOLD", 10.0)
        dw = feedback_warehouse(config)
        session = dw.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(100))
        for _ in range(4):
            session.sql("SELECT v FROM t WHERE id >= 0")
        stats = session.analyze_table("t")
        assert stats.feedback_factor == 1.0

    def test_factor_stays_one_without_query_store(self, session):
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(100))
        session.sql("SELECT v FROM t WHERE id >= 0")
        stats = session.analyze_table("t")
        assert stats.feedback_factor == 1.0

    def test_factor_is_clamped_by_cap(self, config, monkeypatch):
        monkeypatch.setattr(optimizer_manager, "FEEDBACK_FACTOR_CAP", 1.5)
        dw = feedback_warehouse(config)
        session = dw.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(100))
        for _ in range(4):
            session.sql("SELECT v FROM t WHERE id >= 0")
        stats = session.analyze_table("t")
        assert stats.feedback_factor == pytest.approx(1.5)

    def test_factor_scales_scan_estimates(self):
        values = np.arange(100, dtype=np.int64)
        col = collect_column_statistics(
            Field(name="id", type="int64"), values, buckets=8
        )
        scan = TableScan(table="t", columns=("id",))
        plain = cardinality.scan_estimate(
            scan, _stats(col, feedback_factor=1.0)
        )
        corrected = cardinality.scan_estimate(
            scan, _stats(col, feedback_factor=3.0)
        )
        assert corrected == pytest.approx(plain * 3.0)

    def test_corrected_stats_change_explain_estimates(self, config):
        from tests.conftest import small_config

        dw = feedback_warehouse(config)
        session = dw.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(100))
        for _ in range(4):
            session.sql("SELECT v FROM t WHERE id >= 0")
        session.analyze_table("t")  # folds the ~6x misestimate in
        corrected = session.sql(
            "EXPLAIN ANALYZE SELECT v FROM t WHERE id >= 0"
        )
        # Control: identical data analyzed with no misestimate history.
        control_dw = feedback_warehouse(small_config())
        control = control_dw.session()
        control.create_table("t", SCHEMA, distribution_column="id")
        control.insert("t", rows(100))
        control.analyze_table("t")
        baseline = control.sql("EXPLAIN ANALYZE SELECT v FROM t WHERE id >= 0")
        assert "stats=stats" in corrected and "stats=stats" in baseline
        assert _scan_est(baseline) == 100
        assert _scan_est(corrected) > 100  # feedback factor scaled it

    def test_converged_stats_accumulate_no_new_feedback(self, config):
        dw = feedback_warehouse(config)
        session = dw.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(100))
        session.analyze_table("t")
        for _ in range(4):
            session.sql("SELECT v FROM t WHERE id >= 0")  # est is accurate
        stats = session.analyze_table("t")
        assert stats.feedback_factor == 1.0


def _stats(col, feedback_factor):
    from repro.optimizer.statistics import TableStatistics

    return TableStatistics(
        table_id=1,
        table_name="t",
        sequence_id=0,
        row_count=100,
        analyzed_at=0.0,
        source="analyze",
        feedback_factor=feedback_factor,
        columns={"id": col},
    )


def _scan_est(text):
    """The ``est=`` annotation on the plan's ``Scan t`` line."""
    import re

    for line in text.splitlines():
        if line.strip().startswith("Scan t"):
            match = re.search(r"est=(\d+)", line)
            assert match, line
            return int(match.group(1))
    raise AssertionError(f"no scan line in:\n{text}")


class TestDeterminism:
    def _build(self, seed_rows=200):
        from tests.conftest import small_config

        dw = Warehouse(config=small_config(), auto_optimize=False)
        session = dw.session()
        session.create_table("big", SCHEMA, distribution_column="id")
        session.insert("big", rows(seed_rows))
        session.create_table(
            "small", Schema.of(("sid", "int64"), ("w", "float64")),
            distribution_column="sid",
        )
        session.insert(
            "small",
            {"sid": np.arange(4, dtype=np.int64), "w": np.zeros(4)},
        )
        session.analyze_table("big")
        session.analyze_table("small")
        session.create_index("big", "idx_big_id", "id")
        return session

    def test_same_catalog_state_same_plan_text(self):
        query = "EXPLAIN SELECT v, w FROM big JOIN small ON id = sid"
        first = self._build().sql(query)
        second = self._build().sql(query)
        assert first == second

    def test_repeated_explain_is_stable(self):
        session = self._build()
        query = "EXPLAIN SELECT v, w FROM big JOIN small ON id = sid"
        texts = {session.sql(query) for _ in range(5)}
        assert len(texts) == 1
