"""Tests for manifest checkpointing (5.2) and garbage collection (5.3)."""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.sqldb import system_tables as st
from tests.conftest import small_config


def count(table="t"):
    return Aggregate(TableScan(table, ("id",)), (), {"n": ("count", None)})


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


@pytest.fixture
def dw():
    return Warehouse(config=small_config(), auto_optimize=False)


@pytest.fixture
def session(dw):
    s = dw.session()
    s.create_table("t", Schema.of(("id", "int64"), ("v", "float64")),
                   distribution_column="id")
    return s


def table_id(dw, name="t"):
    txn = dw.context.sqldb.begin()
    try:
        return st.find_table_by_name(txn, name)["table_id"]
    finally:
        txn.abort()


class TestCheckpoint:
    def test_checkpoint_written_and_recorded(self, dw, session):
        for i in range(3):
            session.insert("t", ids(10, start=i * 10))
        result = dw.sto.run_checkpoint(table_id(dw))
        assert result is not None
        assert dw.store.exists(result.path)
        assert result.manifests_collapsed == 3

    def test_checkpoint_bounds_replay(self, dw, session):
        for i in range(6):
            session.insert("t", ids(10, start=i * 10))
        dw.sto.run_checkpoint(table_id(dw))
        dw.context.cache.invalidate()
        replayed_before = dw.context.cache.stats.manifests_replayed
        assert dw.session().query(count())["n"][0] == 60
        replayed = dw.context.cache.stats.manifests_replayed - replayed_before
        assert replayed == 0  # checkpoint covers everything

    def test_checkpoint_plus_tail(self, dw, session):
        for i in range(3):
            session.insert("t", ids(10, start=i * 10))
        dw.sto.run_checkpoint(table_id(dw))
        session.insert("t", ids(10, start=100))
        dw.context.cache.invalidate()
        assert dw.session().query(count())["n"][0] == 40

    def test_noop_when_nothing_new(self, dw, session):
        session.insert("t", ids(10))
        assert dw.sto.run_checkpoint(table_id(dw)) is not None
        assert dw.sto.run_checkpoint(table_id(dw)) is None

    def test_noop_on_empty_table(self, dw, session):
        assert dw.sto.run_checkpoint(table_id(dw)) is None

    def test_auto_checkpoint_on_threshold(self):
        config = small_config()
        config.sto.checkpoint_manifest_threshold = 5
        dw = Warehouse(config=config, auto_optimize=True)
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        for i in range(5):
            session.insert("t", ids(5, start=i * 5))
        assert len(dw.sto.checkpoints) == 1

    def test_checkpoint_never_conflicts(self, dw, session):
        """Checkpointing during an open write transaction is safe."""
        session.insert("t", ids(10))
        writer = dw.session()
        writer.begin()
        writer.delete("t", BinOp("==", Col("id"), Lit(0)))
        assert dw.sto.run_checkpoint(table_id(dw)) is not None
        writer.commit()  # still commits fine


class TestGarbageCollection:
    def test_aborted_txn_files_collected(self, dw, session):
        writer = dw.session()
        writer.begin()
        writer.insert("t", ids(10))
        private = writer._txn.private_file_paths()
        writer.rollback()
        report = dw.sto.run_gc()
        assert set(report.deleted) >= set(private)
        assert not any(dw.store.exists(p) for p in private)

    def test_live_files_never_collected(self, dw, session):
        session.insert("t", ids(10))
        live = {f.path for f in session.table_snapshot("t").files.values()}
        report = dw.sto.run_gc()
        assert not (set(report.deleted) & live)
        assert dw.session().query(count())["n"][0] == 10

    def test_in_flight_txn_files_retained(self, dw, session):
        writer = dw.session()
        writer.begin()
        writer.insert("t", ids(10))
        private = set(writer._txn.private_file_paths())
        report = dw.sto.run_gc()
        assert private <= set(report.retained_recent)
        writer.commit()
        assert dw.session().query(count())["n"][0] == 10

    def test_removed_files_kept_within_retention(self, dw, session):
        session.insert("t", ids(10))
        old = {f.path for f in session.table_snapshot("t").files.values()}
        session.delete("t", BinOp(">=", Col("id"), Lit(0)))
        # Merge-on-read delete keeps files; force removal via compaction.
        dw.sto.run_compaction(table_id(dw))
        report = dw.sto.run_gc()
        assert not (set(report.deleted) & old)
        assert all(dw.store.exists(p) for p in old)

    def test_removed_files_collected_after_retention(self, dw, session):
        session.insert("t", ids(100))
        old = {f.path for f in session.table_snapshot("t").files.values()}
        session.delete("t", BinOp("<", Col("id"), Lit(50)))
        dw.sto.run_compaction(table_id(dw))
        dw.clock.advance(dw.config.sto.retention_period_s + 1.0)
        report = dw.sto.run_gc()
        assert old <= set(report.deleted)
        assert dw.session().query(count())["n"][0] == 50

    def test_clone_shared_lineage_protects_files(self, dw, session):
        """A file removed from the source but live in a clone must stay."""
        session.insert("t", ids(100))
        shared = {f.path for f in session.table_snapshot("t").files.values()}
        session.clone_table("t", "t2")
        session.delete("t", BinOp("<", Col("id"), Lit(50)))
        dw.sto.run_compaction(table_id(dw))
        dw.clock.advance(dw.config.sto.retention_period_s + 1.0)
        report = dw.sto.run_gc()
        # t no longer reaches the shared files, but t2 does: retained.
        assert not (shared & set(report.deleted))
        assert dw.session().query(count("t2"))["n"][0] == 100

    def test_gc_publishes_event(self, dw, session):
        seen = []
        dw.context.bus.subscribe("gc.completed", seen.append)
        dw.sto.run_gc()
        assert len(seen) == 1

    def test_gc_report_counts(self, dw, session):
        session.insert("t", ids(10))
        report = dw.sto.run_gc()
        assert report.scanned == report.active + report.deleted_total + len(
            report.retained_recent
        )
