"""Tests for checkpoint retention in GC and periodic GC scheduling."""

import numpy as np
import pytest

from repro import Aggregate, Col, Schema, TableScan, Warehouse
from repro.sqldb import system_tables as st
from tests.conftest import small_config


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


def count():
    return Aggregate(TableScan("t", ("id",)), (), {"n": ("count", None)})


@pytest.fixture
def dw():
    warehouse = Warehouse(config=small_config(), auto_optimize=False)
    session = warehouse.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    return warehouse


def make_checkpoints(dw, count_):
    session = dw.session()
    created = []
    for i in range(count_):
        session.insert("t", ids(5, start=i * 10))
        created.append(dw.sto.run_checkpoint(1001))
    return created


class TestCheckpointRetention:
    def test_superseded_old_checkpoints_collected(self, dw):
        checkpoints = make_checkpoints(dw, 3)
        dw.clock.advance(dw.config.sto.retention_period_s + 1)
        report = dw.sto.run_gc()
        deleted = set(report.deleted)
        assert checkpoints[0].path in deleted
        assert checkpoints[1].path in deleted
        assert checkpoints[2].path not in deleted  # newest stays

    def test_checkpoint_rows_removed_with_blobs(self, dw):
        make_checkpoints(dw, 3)
        dw.clock.advance(dw.config.sto.retention_period_s + 1)
        dw.sto.run_gc()
        txn = dw.context.sqldb.begin()
        rows = st.checkpoints_for_table(txn, 1001)
        txn.abort()
        assert len(rows) == 1

    def test_recent_checkpoints_retained(self, dw):
        checkpoints = make_checkpoints(dw, 3)
        report = dw.sto.run_gc()  # no time has passed
        deleted = set(report.deleted)
        assert not deleted.intersection(c.path for c in checkpoints)

    def test_table_readable_after_checkpoint_gc(self, dw):
        make_checkpoints(dw, 4)
        dw.clock.advance(dw.config.sto.retention_period_s + 1)
        dw.sto.run_gc()
        dw.context.cache.invalidate()
        assert dw.session().query(count())["n"][0] == 20


class TestPeriodicGc:
    def test_gc_fires_on_clock_advance(self, dw):
        dw.sto.enabled = True
        session = dw.session()
        # An aborted transaction leaves orphans behind.
        session.begin()
        session.insert("t", ids(10))
        private = session._txn.private_file_paths()
        session.rollback()
        dw.sto.schedule_periodic_gc(interval_s=100.0)
        assert not dw.sto.gc_reports
        dw.clock.advance(101.0)
        assert len(dw.sto.gc_reports) == 1
        assert not any(dw.store.exists(p) for p in private)

    def test_gc_rearms_each_interval(self, dw):
        dw.sto.enabled = True
        dw.sto.schedule_periodic_gc(interval_s=50.0)
        dw.clock.advance(51.0)
        dw.clock.advance(50.0)
        dw.clock.advance(50.0)
        assert len(dw.sto.gc_reports) == 3

    def test_disabled_sto_skips_but_keeps_schedule(self, dw):
        dw.sto.enabled = False
        dw.sto.schedule_periodic_gc(interval_s=10.0)
        dw.clock.advance(11.0)
        assert dw.sto.gc_reports == []
        dw.sto.enabled = True
        dw.clock.advance(10.0)
        assert len(dw.sto.gc_reports) == 1

    def test_default_interval_from_retention(self, dw):
        dw.sto.enabled = True
        dw.sto.schedule_periodic_gc()
        dw.clock.advance(dw.config.sto.retention_period_s / 2 + 1)
        assert len(dw.sto.gc_reports) == 1
