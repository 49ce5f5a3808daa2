"""The sys.dm_* system views, queried live through the SQL entry point."""

import numpy as np
import pytest

from repro import PolarisConfig, Schema, Warehouse
from repro.sql.lexer import SqlSyntaxError

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def batch(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


@pytest.fixture
def metered_dw(config):
    config.telemetry.metrics = True
    config.telemetry.sample_interval_s = 1.0
    return Warehouse(config=config, auto_optimize=False)


class TestMidFlight:
    """The acceptance scenario: open work visible in the views mid-flight."""

    def test_open_transaction_shows_active_then_committed(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 50))

        session.begin()
        session.insert("t", batch(50, 50))
        active = session.sql(
            "SELECT txid, status, isolation FROM sys.dm_transactions "
            "WHERE status = 'active'"
        )
        assert len(active["txid"]) == 1
        assert active["isolation"][0] == "snapshot"
        txid = int(active["txid"][0])

        session.commit()
        after = session.sql(
            "SELECT status, rows_inserted FROM sys.dm_transactions "
            f"WHERE txid = {txid}"
        )
        assert list(after["status"]) == ["committed"]
        assert int(after["rows_inserted"][0]) == 50

    def test_compaction_backlog_degrades_storage_health(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 100))
        clean = session.sql("SELECT state FROM sys.dm_storage_health")
        assert list(clean["state"]) == ["GREEN"]

        # Delete enough rows that files cross max_deleted_fraction: a
        # compaction backlog the STO would act on, visible mid-flight.
        session.sql("DELETE FROM t WHERE id < 40")
        degraded = session.sql(
            "SELECT state, deleted_rows, low_quality_files, dv_count "
            "FROM sys.dm_storage_health"
        )
        assert degraded["state"][0] in ("YELLOW", "RED")
        assert int(degraded["deleted_rows"][0]) == 40
        assert int(degraded["low_quality_files"][0]) > 0
        assert int(degraded["dv_count"][0]) > 0

    def test_pending_compaction_reports_red(self, config):
        config.telemetry.metrics = True
        dw = Warehouse(config=config, auto_optimize=True)
        session = dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 100))
        session.sql("DELETE FROM t WHERE id < 40")
        # Table stats are published on the read path; one user query
        # feeds the STO trigger, which queues the compaction.
        session.sql("SELECT id FROM t WHERE id = 50")
        assert dw.sto.pending_compactions
        row = session.sql(
            "SELECT state, pending_compaction FROM sys.dm_storage_health"
        )
        assert row["state"][0] == "RED"
        assert bool(row["pending_compaction"][0])

    def test_metrics_history_accumulates_samples(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 50))
        # Watchers fire once per advance (no catch-up storm), so step the
        # clock through five intervals to collect five samples.
        for _ in range(5):
            metered_dw.clock.advance(1.0)
        history = session.sql(
            "SELECT sample_id, metric, value FROM sys.dm_metrics_history "
            "WHERE metric = 'txn.commits' ORDER BY sample_id"
        )
        assert len(history["sample_id"]) >= 5
        assert float(history["value"][-1]) == 2.0  # create + insert


class TestViewSemantics:
    def test_dm_metrics_reflects_counters(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 10))
        row = session.sql(
            "SELECT value FROM sys.dm_metrics WHERE name = 'txn.commits'"
        )
        assert float(row["value"][0]) == 2.0

    def test_dm_store_operations_populated(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 10))
        ops = session.sql(
            "SELECT operation, requests FROM sys.dm_store_operations "
            "ORDER BY requests DESC"
        )
        assert len(ops["operation"]) > 0
        assert int(ops["requests"][0]) > 0

    def test_dm_checkpoints_after_checkpoint(self, metered_dw):
        session = metered_dw.session()
        table_id = session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 10))
        session.insert("t", batch(10, 10))
        result = metered_dw.sto.run_checkpoint(table_id)
        assert result is not None
        rows = session.sql(
            "SELECT table_name, sequence_id FROM sys.dm_checkpoints"
        )
        assert list(rows["table_name"]) == ["t"]

    def test_aggregation_and_limit_compose(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 10))
        agg = session.sql(
            "SELECT kind, COUNT(*) AS n FROM sys.dm_metrics "
            "GROUP BY kind ORDER BY n DESC LIMIT 2"
        )
        assert 1 <= len(agg["kind"]) <= 2
        assert int(agg["n"][0]) >= 1

    def test_query_does_not_observe_itself(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        rows = session.sql(
            "SELECT txid FROM sys.dm_transactions WHERE status = 'active'"
        )
        assert len(rows["txid"]) == 0

    def test_empty_views_keep_schema_dtypes(self, metered_dw):
        session = metered_dw.session()
        history = session.sql("SELECT * FROM sys.dm_recovery_history")
        assert history["recovery_id"].dtype == np.int64
        assert history["at"].dtype == np.float64
        assert len(history["recovery_id"]) == 0


class TestGuards:
    def test_writes_rejected(self, metered_dw):
        session = metered_dw.session()
        with pytest.raises(SqlSyntaxError, match="read-only"):
            session.sql("DELETE FROM sys.dm_transactions")
        with pytest.raises(SqlSyntaxError, match="read-only"):
            session.sql("INSERT INTO sys.dm_metrics (name) VALUES ('x')")
        with pytest.raises(SqlSyntaxError, match="read-only"):
            session.sql("UPDATE sys.dm_metrics SET value = 0")
        with pytest.raises(SqlSyntaxError, match="read-only"):
            session.sql("CREATE TABLE sys.dm_custom (id bigint)")

    def test_unknown_view_lists_catalog(self, metered_dw):
        session = metered_dw.session()
        with pytest.raises(SqlSyntaxError, match="sys.dm_transactions"):
            session.sql("SELECT * FROM sys.dm_nope")

    def test_join_with_user_table_rejected(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        with pytest.raises(SqlSyntaxError, match="joined"):
            session.sql(
                "SELECT id FROM t JOIN sys.dm_transactions ON id = txid"
            )

    def test_explain_supported_analyze_rejected(self, metered_dw):
        session = metered_dw.session()
        plan = session.sql(
            "EXPLAIN SELECT txid FROM sys.dm_transactions "
            "WHERE status = 'committed'"
        )
        assert "sys.dm_transactions" in plan
        with pytest.raises(SqlSyntaxError, match="EXPLAIN ANALYZE"):
            session.sql("EXPLAIN ANALYZE SELECT * FROM sys.dm_transactions")

    def test_report_and_summary(self, metered_dw):
        session = metered_dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 10))
        report = metered_dw.context.introspection.report()
        assert "observability report" in report
        assert "2 committed" in report
        assert " 0 B written" not in report


class TestLedgerHistoryCap:
    """The ledger forgets finished transactions past the cap — oldest
    finish first — and never an active one."""

    def test_only_the_newest_finished_records_are_kept(self, monkeypatch):
        from repro.common.clock import SimulatedClock
        from repro.common.events import EventBus
        from repro.telemetry import introspection

        monkeypatch.setattr(introspection, "FINISHED_HISTORY_CAP", 3)
        bus = EventBus()
        ledger = introspection.TransactionLedger(bus, SimulatedClock())
        for txid in range(1, 8):
            bus.publish(
                "txn.begin", txid=txid, isolation="snapshot", begin_seq=0, begin_ts=0.0
            )
        for txid in (2, 1, 4):
            bus.publish("txn.finished", txid=txid, commit_seq=txid, units=[], tables=[])
        bus.publish("txn.aborted", txid=5, reason="conflict")
        bus.publish("txn.aborted", txid=5, reason="conflict")  # finishes once
        bus.publish("txn.finished", txid=6, commit_seq=9, units=[], tables=[])
        status = {record["txid"]: record["status"] for record in ledger.records()}
        # 2 and 1 finished first and are gone; 3 and 7 never finished.
        assert status == {
            3: "active", 4: "committed", 5: "aborted", 6: "committed", 7: "active",
        }
