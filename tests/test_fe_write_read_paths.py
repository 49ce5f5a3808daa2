"""Tests for the distributed write and read paths: DML semantics, bulk
loads, pruning, updates over DVs, and schema validation."""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    Aggregate,
    BinOp,
    Col,
    Filter,
    Lit,
    Schema,
    TableScan,
    Warehouse,
    and_,
)
from repro.common.errors import (
    CatalogError,
    SchemaMismatchError,
    WriteConflictError,
)
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


class TestInsert:
    def test_rows_split_across_distributions(self, dw, session):
        session.insert("t", ids(100))
        snapshot = session.table_snapshot("t")
        distributions = {f.distribution for f in snapshot.files.values()}
        assert len(distributions) == dw.config.distributions

    def test_insert_returns_row_count(self, session):
        assert session.insert("t", ids(42)) == 42

    def test_empty_insert_is_noop(self, dw, session):
        assert session.insert("t", ids(0)) == 0
        assert session.table_snapshot("t").files == {}

    def test_schema_mismatch_rejected(self, session):
        with pytest.raises(SchemaMismatchError):
            session.insert("t", {"wrong": np.arange(3)})

    def test_unknown_table_rejected(self, session):
        with pytest.raises(CatalogError):
            session.insert("ghost", ids(1))

    def test_round_robin_without_distribution_column(self, dw):
        session = dw.session()
        session.create_table("rr", Schema.of(("id", "int64"), ("v", "float64")))
        session.insert("rr", ids(40))
        snapshot = session.table_snapshot("rr")
        assert len(snapshot.files) == dw.config.distributions

    def test_data_files_stamped_for_gc(self, dw, session):
        session.insert("t", ids(10))
        snapshot = session.table_snapshot("t")
        for info in snapshot.files.values():
            blob = dw.store.head(info.path)
            assert "creator_txid" in blob.metadata
            assert "creator_begin_ts" in blob.metadata


class TestBulkLoad:
    def test_one_file_per_source(self, dw, session):
        sources = [ids(10, start=i * 10) for i in range(6)]
        total = session.bulk_load("t", sources)
        assert total == 60
        assert len(session.table_snapshot("t").files) == 6

    def test_elastic_pool_resizes_with_sources(self):
        # CPU cost dominates (tiny rows-per-node), so parallelism is capped
        # by the source-file count: 8 sources / 2 slots per node → 4 nodes.
        config = small_config()
        config.dcp.rows_per_node_million = 1e-6
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        session.bulk_load("t", [ids(5, start=i * 5) for i in range(8)])
        assert dw.context.wlm.pool("write").size == 4

    def test_fixed_deployment_keeps_pool_size(self):
        dw = Warehouse(config=small_config(), elastic=False, auto_optimize=False)
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        before = dw.context.wlm.pool("write").size
        session.bulk_load("t", [ids(5, start=i * 5) for i in range(8)])
        assert dw.context.wlm.pool("write").size == before

    def test_empty_sources_skipped(self, session):
        total = session.bulk_load("t", [ids(5), ids(0), ids(5, start=10)])
        assert total == 10
        assert len(session.table_snapshot("t").files) == 2


class TestDelete:
    def test_delete_by_predicate(self, dw, session):
        session.insert("t", ids(100))
        deleted = session.delete("t", BinOp("<", Col("id"), Lit(30)))
        assert deleted == 30
        assert dw.session().query(count())["n"][0] == 70

    def test_delete_nothing(self, session):
        session.insert("t", ids(10))
        assert session.delete("t", BinOp(">", Col("id"), Lit(999))) == 0

    def test_delete_everything(self, dw, session):
        session.insert("t", ids(10))
        assert session.delete("t", BinOp(">=", Col("id"), Lit(0))) == 10
        assert dw.session().query(count())["n"][0] == 0

    def test_second_delete_merges_dv(self, dw, session):
        session.insert("t", ids(100))
        session.delete("t", BinOp("<", Col("id"), Lit(10)))
        session.delete("t", and_(BinOp(">=", Col("id"), Lit(10)),
                                 BinOp("<", Col("id"), Lit(20))))
        snapshot = session.table_snapshot("t")
        # Per data file at most one DV (old one replaced by merged one).
        assert set(snapshot.dvs) <= set(snapshot.files)
        total_deleted = sum(dv.cardinality for dv in snapshot.dvs.values())
        assert total_deleted == 20
        assert dw.session().query(count())["n"][0] == 80

    def test_delete_with_prune_hint(self, dw, session):
        session.insert("t", ids(100))
        deleted = session.delete(
            "t",
            BinOp("==", Col("id"), Lit(55)),
            prune=[("id", "==", 55)],
        )
        assert deleted == 1

    def test_deleted_rows_invisible_to_scan(self, dw, session):
        session.insert("t", ids(20))
        session.delete("t", BinOp("==", Col("id"), Lit(7)))
        out = dw.session().query(TableScan("t", ("id",)))
        assert 7 not in out["id"]


class TestUpdate:
    def test_update_changes_values(self, dw, session):
        session.insert("t", ids(20))
        updated = session.update(
            "t", BinOp("<", Col("id"), Lit(5)), {"v": Lit(-1.0)}
        )
        assert updated == 5
        out = dw.session().query(TableScan("t", ("id", "v")))
        by_id = dict(zip(out["id"].tolist(), out["v"].tolist()))
        assert all(by_id[i] == -1.0 for i in range(5))
        assert by_id[10] == 10.0

    def test_update_preserves_row_count(self, dw, session):
        session.insert("t", ids(50))
        session.update("t", BinOp(">=", Col("id"), Lit(0)),
                       {"v": BinOp("+", Col("v"), Lit(100.0))})
        assert dw.session().query(count())["n"][0] == 50

    def test_update_expression_uses_old_values(self, dw, session):
        session.insert("t", ids(10))
        session.update("t", BinOp("==", Col("id"), Lit(3)),
                       {"v": BinOp("*", Col("v"), Lit(10.0))})
        out = dw.session().query(
            Filter(TableScan("t", ("id", "v")), BinOp("==", Col("id"), Lit(3)))
        )
        assert out["v"][0] == 30.0

    def test_update_nothing(self, session):
        session.insert("t", ids(10))
        assert session.update("t", BinOp(">", Col("id"), Lit(99)),
                              {"v": Lit(0.0)}) == 0


class TestReadPath:
    def test_projection_only_reads_requested_columns(self, dw, session):
        session.insert("t", ids(10))
        out = dw.session().query(TableScan("t", ("v",)))
        assert list(out) == ["v"]

    def test_repeated_column_is_read_once(self, dw, session):
        # Regression: every listing of "id" appended its chunks again, so
        # "id" came back with 10 values beside the 5 of "v".
        session.insert("t", ids(5))
        out = dw.session().query(TableScan("t", ("id", "v", "id")))
        assert list(out) == ["id", "v"]
        assert sorted(out["id"].tolist()) == list(range(5))
        assert len(out["v"]) == 5

    def test_scan_prune_hint_correct(self, dw, session):
        session.insert("t", ids(100))
        out = dw.session().query(
            TableScan("t", ("id",), predicate=BinOp(">", Col("id"), Lit(90)),
                      prune=(("id", ">", 90),))
        )
        assert sorted(out["id"].tolist()) == list(range(91, 100))

    def test_empty_table_scan(self, dw, session):
        out = dw.session().query(TableScan("t", ("id", "v")))
        assert len(out["id"]) == 0

    def test_scan_publishes_stats(self, dw, session):
        session.insert("t", ids(10))
        seen = []
        dw.context.bus.subscribe("stats.table", seen.append)
        dw.session().query(count())
        assert seen
        assert seen[-1].payload["stats"].total_rows == 10

    def test_elastic_read_pool_resizes(self, dw, session):
        session.insert("t", ids(100))
        dw.session().query(count())
        assert dw.context.wlm.pool("read").size >= 1


class TestSessionLifetime:
    def test_a_dropped_session_is_freed_without_the_cyclic_collector(
        self, warehouse
    ):
        """``Session.sql`` keeps no wrapper that points back at the
        session, so reference counting alone frees it."""
        session = warehouse.session()
        session.sql("CREATE TABLE s (id BIGINT, v DOUBLE)")
        session.sql("INSERT INTO s (id, v) VALUES (1, 2.5)")
        assert list(session.sql("SELECT id FROM s")["id"]) == [1]
        ref = weakref.ref(session)
        gc.disable()
        try:
            del session
            assert ref() is None
        finally:
            gc.enable()

    def test_finished_writers_are_freed_without_the_cyclic_collector(
        self, dw, session
    ):
        """The commit hook that stamps a writer's manifest rows is dropped
        once the engine ran it, and when the loser of a first-committer-
        wins race aborts, so neither transaction outlives its last
        reference."""
        session.insert("t", ids(20))
        loser_session = dw.session()
        winner = session.begin()
        loser = loser_session.begin()
        for each in (session, loser_session):
            each.update("t", BinOp("<", Col("id"), Lit(5)), {"v": Lit(0.0)})
        session.commit()
        with pytest.raises(WriteConflictError):
            loser_session.commit()
        refs = [weakref.ref(winner), weakref.ref(loser)]
        gc.disable()
        try:
            del winner, loser
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
