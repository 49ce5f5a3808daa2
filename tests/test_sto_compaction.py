"""Tests for data compaction (Section 5.1)."""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.engine.statistics import collect_stats, file_health
from tests.conftest import small_config


def count(table="t"):
    return Aggregate(TableScan(table, ("id",)), (), {"n": ("count", None)})


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64),
            "v": np.arange(start, start + n, dtype=np.float64)}


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
        from repro.sqldb import system_tables as st
        return st.find_table_by_name(txn, name)["table_id"]
    finally:
        txn.abort()


class TestFileHealth:
    def test_fragmented_file_is_unhealthy(self, dw, session):
        session.insert("t", ids(100))
        session.delete("t", BinOp("<", Col("id"), Lit(50)))
        snapshot = session.table_snapshot("t")
        stats = collect_stats(table_id(dw), snapshot, dw.config.sto)
        assert not stats.healthy
        assert stats.deleted_rows == 50

    def test_healthy_after_fresh_load(self, dw, session):
        session.insert("t", ids(100))
        snapshot = session.table_snapshot("t")
        report = file_health(snapshot, dw.config.sto)
        assert all(h.healthy for h in report)

    def test_small_files_are_unhealthy(self, dw, session):
        config = dw.config.sto
        # Two trickle inserts: each cell holds two tiny mergeable files.
        session.insert("t", ids(8))
        session.insert("t", ids(8, start=100))
        snapshot = session.table_snapshot("t")
        report = file_health(snapshot, config)
        assert all(not h.healthy for h in report)  # below min_healthy_rows

    def test_singleton_small_file_is_healthy(self, dw, session):
        """A lone tiny file per cell has nothing to merge with: healthy."""
        session.insert("t", ids(8))  # 8 rows over 4 distributions: 2/file
        snapshot = session.table_snapshot("t")
        report = file_health(snapshot, dw.config.sto)
        assert all(h.healthy for h in report)


class TestCompaction:
    def test_compaction_filters_deleted_rows(self, dw, session):
        session.insert("t", ids(200))
        session.delete("t", BinOp("<", Col("id"), Lit(100)))
        result = dw.sto.run_compaction(table_id(dw))
        assert result.committed
        assert result.files_rewritten > 0
        snapshot = session.table_snapshot("t")
        assert snapshot.dvs == {}  # DVs folded into rewritten files
        assert snapshot.live_rows == 100
        assert dw.session().query(count())["n"][0] == 100

    def test_compaction_preserves_query_results(self, dw, session):
        session.insert("t", ids(200))
        session.delete("t", BinOp("==", Col("id"), Lit(7)))
        before = dw.session().query(TableScan("t", ("id",)))
        dw.sto.run_compaction(table_id(dw))
        after = dw.session().query(TableScan("t", ("id",)))
        assert sorted(before["id"].tolist()) == sorted(after["id"].tolist())

    def test_compaction_merges_small_files(self, dw, session):
        for i in range(5):
            session.insert("t", ids(4, start=i * 4))  # tiny files pile up
        before = len(session.table_snapshot("t").files)
        result = dw.sto.run_compaction(table_id(dw))
        assert result.committed
        after = len(session.table_snapshot("t").files)
        assert after < before

    def test_healthy_table_is_noop(self, dw, session):
        session.insert("t", ids(200))
        result = dw.sto.run_compaction(table_id(dw))
        assert result.committed
        assert result.files_rewritten == 0

    def test_unknown_table_is_noop(self, dw):
        result = dw.sto.run_compaction(99999)
        assert not result.committed

    def test_old_files_tombstoned_not_deleted(self, dw, session):
        session.insert("t", ids(100))
        session.delete("t", BinOp("<", Col("id"), Lit(50)))
        old_paths = {f.path for f in session.table_snapshot("t").files.values()}
        dw.sto.run_compaction(table_id(dw))
        # Rewritten files logically removed but physically present.
        assert all(dw.store.exists(p) for p in old_paths)
        snapshot = session.table_snapshot("t")
        assert not old_paths & {f.path for f in snapshot.files.values()}

    def test_compaction_conflicts_with_user_delete(self, dw, session):
        """The paper's caveat: compaction can conflict with user txns."""
        session.insert("t", ids(100))
        session.delete("t", BinOp("<", Col("id"), Lit(40)))
        user = dw.session()
        user.begin()
        user.delete("t", BinOp("==", Col("id"), Lit(60)))
        user.commit()  # commits first...
        result = dw.sto.run_compaction(table_id(dw))
        assert result.committed  # ...so compaction (started after) is fine

        # Now the reverse: compaction commits while a user txn has deleted.
        # Heavy fragmentation so compaction really rewrites files.
        session.delete("t", BinOp("<", Col("id"), Lit(78)))
        user2 = dw.session()
        user2.begin()
        user2.delete("t", BinOp("==", Col("id"), Lit(80)))
        result = dw.sto.run_compaction(table_id(dw))
        assert result.committed
        assert result.files_rewritten > 0
        from repro.common.errors import WriteConflictError
        with pytest.raises(WriteConflictError):
            user2.commit()

    def test_compaction_invisible_until_commit(self, dw, session):
        """A reader pinned before compaction keeps its view."""
        session.insert("t", ids(100))
        session.delete("t", BinOp("<", Col("id"), Lit(20)))
        reader = dw.session()
        reader.begin()
        assert reader.query(count())["n"][0] == 80
        dw.sto.run_compaction(table_id(dw))
        assert reader.query(count())["n"][0] == 80
        reader.commit()
