"""GC-under-crash safety: a crashed and re-run GC never eats live data."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.chaos import ChaosController, RecoveryManager, SimulatedCrash
from repro.chaos.harness import check_storage_bounded
from repro.engine.expressions import BinOp, Col, Lit
from repro.sqldb import system_tables as catalog

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def batch(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


@pytest.fixture
def aged(config):
    """A warehouse whose table has live files, DVs, and GC-eligible garbage."""
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    table_id = session.create_table("t", SCHEMA, distribution_column="id")
    session.insert("t", batch(0, 200))
    session.insert("t", batch(200, 20))
    session.delete("t", BinOp("<", Col("id"), Lit(20)))
    dw.sto.run_compaction(table_id)  # removes the rewritten files
    dw.sto.run_checkpoint(table_id)
    # Age everything past retention so the removed files fall out of every
    # keep set and stale metadata is GC-eligible, then add fresh (well
    # within retention) state on top.
    dw.clock.advance(config.sto.retention_period_s + 60.0)
    session.insert("t", batch(1000, 50))
    return dw, session, table_id


def live_paths(dw, table_id):
    """The latest snapshot's data/DV file paths plus its anchor manifest."""
    txn = dw.context.sqldb.begin()
    try:
        rows = catalog.manifests_for_table(txn, table_id)
    finally:
        txn.abort()
    snapshot = dw.context.cache.get(table_id, rows[-1]["sequence_id"])
    paths = {info.path for info in snapshot.files.values()}
    paths.update(info.path for info in snapshot.dvs.values())
    paths.add(rows[-1]["manifest_path"])
    return paths, snapshot.live_rows


class TestGcCrashSafety:
    def test_gc_crashed_mid_scan_then_rerun_spares_live_files(self, aged):
        dw, session, table_id = aged
        protected, rows_before = live_paths(dw, table_id)

        controller = ChaosController(seed=0).arm("sto.gc.mid_delete", hits=2)
        with controller:
            with pytest.raises(SimulatedCrash):
                dw.sto.run_gc()
        # One blob was physically deleted, the second delete crashed.
        assert controller.hits["sto.gc.mid_delete"] == 2

        RecoveryManager(dw.context, sto=dw.sto).recover()
        report = dw.sto.run_gc()
        deleted = set(report.deleted)
        assert not deleted & protected
        for path in protected:
            assert dw.store.exists(path), path
        assert session.table_snapshot("t").live_rows == rows_before

    def test_gc_crashed_before_cleanup_commit_loses_no_metadata(self, aged):
        dw, session, table_id = aged
        __, rows_before = live_paths(dw, table_id)
        controller = ChaosController(seed=0).arm("sto.gc.before_catalog_cleanup")
        with controller:
            with pytest.raises(SimulatedCrash):
                dw.sto.run_gc()
        # The truncation transaction never committed: every catalog row
        # still resolves to a blob and the snapshot is intact.
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert not report.missing_manifests
        assert session.table_snapshot("t").live_rows == rows_before
        # The re-run completes the interrupted cleanup.
        dw.sto.run_gc()
        assert session.table_snapshot("t").live_rows == rows_before

    def test_rerun_gc_converges_to_zero_orphans(self, aged):
        dw, session, table_id = aged
        controller = ChaosController(seed=0).arm("sto.gc.mid_delete")
        with controller:
            with pytest.raises(SimulatedCrash):
                dw.sto.run_gc()
        RecoveryManager(dw.context, sto=dw.sto).recover()
        dw.sto.run_gc()
        assert check_storage_bounded(dw.context) == []
        second = dw.sto.run_gc()
        assert second.deleted == []
        assert second.retained_recent == []
