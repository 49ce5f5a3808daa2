"""Crash safety of ANALYZE / CREATE INDEX and the STO maintenance jobs."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.chaos import ChaosController, RecoveryManager, SimulatedCrash
from repro.sqldb import system_tables as catalog

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def rows(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


@pytest.fixture
def loaded(warehouse, session):
    table_id = session.create_table("t", SCHEMA, distribution_column="id")
    session.insert("t", rows(0, 100))
    return warehouse, session, table_id


def crash_at(site, thunk):
    controller = ChaosController(seed=0).arm(site)
    with controller:
        with pytest.raises(SimulatedCrash):
            thunk()


def catalog_read(dw, fn):
    txn = dw.context.sqldb.begin()
    try:
        return fn(txn)
    finally:
        txn.abort()


class TestAnalyzeCrash:
    def test_crash_before_stats_put_leaves_no_row(self, loaded):
        dw, session, table_id = loaded
        crash_at(
            "fe.analyze.before_stats_put", lambda: session.analyze_table("t")
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.in_doubt_aborted == 1  # the crashed ANALYZE txn
        latest = catalog_read(
            dw, lambda txn: catalog.latest_table_stats(txn, table_id, 10**9)
        )
        assert latest is None
        # The statement is safely re-runnable after recovery.
        stats = session.analyze_table("t")
        assert stats.row_count == 100


class TestIndexCrash:
    def test_crash_between_blob_and_row_is_scavenged(self, loaded):
        dw, session, table_id = loaded
        crash_at(
            "fe.index.after_file_put",
            lambda: session.create_index("t", "idx", "id"),
        )
        # The blob was written but the catalog row never committed.
        orphans = [
            b.path for b in dw.context.store.list() if "/_indexes/" in b.path
        ]
        assert len(orphans) == 1
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.orphan_index_blobs_deleted == orphans
        assert not any(
            "/_indexes/" in b.path for b in dw.context.store.list()
        )
        assert catalog_read(
            dw, lambda txn: catalog.indexes_for_table(txn, table_id)
        ) == []
        # Rebuild succeeds and queries prune through it.
        session.create_index("t", "idx", "id")
        assert list(session.sql("SELECT v FROM t WHERE id = 7")["v"]) == [7.0]

    def test_recovery_drops_the_index_cache(self, loaded):
        dw, session, __ = loaded
        session.create_index("t", "idx", "id")
        assert list(session.sql("SELECT v FROM t WHERE id = 7")["v"]) == [7.0]
        assert dw.context.optimizer.index_cache, "the probe loaded no index"
        RecoveryManager(dw.context, sto=dw.sto).recover()
        assert dw.context.optimizer.index_cache == {}

    def test_index_row_with_missing_blob_dropped(self, loaded):
        dw, session, table_id = loaded
        payload = session.create_index("t", "idx", "id")
        dw.context.store.delete(payload["path"])
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.index_rows_dropped == [payload["path"]]
        assert catalog_read(
            dw, lambda txn: catalog.indexes_for_table(txn, table_id)
        ) == []
        # Indexes are an optimization: the table still answers queries.
        assert list(session.sql("SELECT v FROM t WHERE id = 7")["v"]) == [7.0]

    def test_healthy_index_survives_recovery(self, loaded):
        dw, session, table_id = loaded
        session.create_index("t", "idx", "id")
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.clean
        listed = catalog_read(
            dw, lambda txn: catalog.indexes_for_table(txn, table_id)
        )
        assert [r["index_name"] for r in listed] == ["idx"]


class TestGcSafety:
    def test_gc_keeps_referenced_index_blobs(self, loaded):
        dw, session, table_id = loaded
        payload = session.create_index("t", "idx", "id")
        dw.context.clock.advance(dw.config.sto.retention_period_s * 3)
        dw.sto.run_gc()
        assert dw.context.store.get(payload["path"]) is not None

    def test_gc_collects_superseded_index_blobs(self, loaded):
        dw, session, table_id = loaded
        first = session.create_index("t", "idx", "id")
        session.insert("t", rows(100, 50))
        second = session.create_index("t", "idx", "id")
        assert first["path"] != second["path"]
        dw.context.clock.advance(dw.config.sto.retention_period_s * 3)
        dw.sto.run_gc()
        paths = {b.path for b in dw.context.store.list()}
        assert second["path"] in paths
        assert first["path"] not in paths


class TestStoMaintenance:
    def _warehouse(self, config, analyze_rows=0):
        config.optimizer.auto_analyze_rows = analyze_rows
        return Warehouse(config=config, auto_optimize=True)

    def test_auto_analyze_fires_on_ingest_volume(self, config):
        dw = self._warehouse(config, analyze_rows=120)
        session = dw.session()
        table_id = session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 100))  # 100 < 120: below threshold
        assert dw.sto.auto_analyzes.get(table_id) is None
        session.insert("t", rows(100, 50))  # cumulative 150 >= 120
        assert dw.sto.auto_analyzes.get(table_id) == 1
        latest = catalog_read(
            dw, lambda txn: catalog.latest_table_stats(txn, table_id, 10**9)
        )
        assert latest is not None
        assert latest["source"] == "auto"
        assert latest["row_count"] == 150

    def test_auto_analyze_disabled_by_default(self, config):
        dw = self._warehouse(config)
        session = dw.session()
        table_id = session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 500))
        assert dw.sto.auto_analyzes.get(table_id) is None

    def test_commit_refreshes_stale_index(self, config):
        dw = self._warehouse(config)
        session = dw.session()
        table_id = session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 100))
        built = session.create_index("t", "idx", "id")
        session.insert("t", rows(100, 50))
        assert dw.sto.index_refreshes.get(table_id, 0) >= 1
        row = catalog_read(
            dw, lambda txn: catalog.indexes_for_table(txn, table_id)
        )[0]
        assert row["sequence_id"] > built["sequence_id"]
        # The refreshed index covers the new files, so a probe into the
        # newest rows prunes instead of falling back to a full scan.
        assert sorted(row["covered_files"]) == sorted(
            session.table_snapshot("t").files
        )

    def test_compaction_refreshes_index(self, config):
        config.sto.max_deleted_fraction = 0.1
        dw = self._warehouse(config)
        session = dw.session()
        table_id = session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 100))
        session.create_index("t", "idx", "id")
        session.sql("DELETE FROM t WHERE id < 50")
        dw.sto.tick()
        row = catalog_read(
            dw, lambda txn: catalog.indexes_for_table(txn, table_id)
        )[0]
        # Every covered file is live post-compaction: nothing stale.
        live = set(session.table_snapshot("t").files)
        assert set(row["covered_files"]) <= live or dw.sto.index_refreshes.get(
            table_id, 0
        ) >= 1


class TestStoMaintenanceCrash:
    """A crash inside a job the STO runs after a commit must reach the
    committing caller; recovery then leaves the catalog matching the
    store, and the committed rows answer queries unchanged."""

    def _loaded(self, config, analyze_rows=0):
        config.optimizer.auto_analyze_rows = analyze_rows
        dw = Warehouse(config=config, auto_optimize=True)
        session = dw.session()
        table_id = session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 100))
        return dw, session, table_id

    @staticmethod
    def assert_all_rows(session, count):
        batch = session.sql("SELECT id, v FROM t ORDER BY id")
        expected = rows(0, count)
        assert np.array_equal(batch["id"], expected["id"])
        assert np.array_equal(batch["v"], expected["v"])

    def test_crash_in_auto_analyze_reaches_the_committer(self, config):
        dw, session, table_id = self._loaded(config, analyze_rows=120)
        # The insert commits, then its commit event runs auto-ANALYZE.
        crash_at(
            "fe.analyze.before_stats_put",
            lambda: session.insert("t", rows(100, 50)),
        )
        # The STO rolled its ANALYZE back while the crash unwound.
        assert RecoveryManager(dw.context, sto=dw.sto).recover().clean
        assert catalog_read(
            dw, lambda txn: catalog.latest_table_stats(txn, table_id, 10**9)
        ) is None
        assert dw.sto.auto_analyzes.get(table_id) is None
        self.assert_all_rows(session, 150)
        # Statistics written after recovery describe the committed rows.
        assert session.analyze_table("t").row_count == 150

    def test_crash_in_index_refresh_reaches_the_committer(self, config):
        dw, session, table_id = self._loaded(config)
        built = session.create_index("t", "idx", "id")
        # The insert commits, then its commit event rebuilds the index.
        crash_at(
            "fe.index.after_file_put",
            lambda: session.insert("t", rows(100, 50)),
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        # The rebuilt blob landed, its row never committed: scavenged,
        # and the one row left still points at a blob that exists.
        assert len(report.orphan_index_blobs_deleted) == 1
        (row,) = catalog_read(
            dw, lambda txn: catalog.indexes_for_table(txn, table_id)
        )
        assert row["path"] == built["path"]
        index_blobs = [
            b.path for b in dw.context.store.list() if "/_indexes/" in b.path
        ]
        assert index_blobs == [built["path"]]
        self.assert_all_rows(session, 150)
        # The stale index never hides rows it does not cover.
        assert list(session.sql("SELECT v FROM t WHERE id = 120")["v"]) == [120.0]
