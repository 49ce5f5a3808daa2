"""Tests for zero-data-copy backup and restore (Section 6.3)."""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.common.errors import TransactionStateError
from repro.sqldb import system_tables as catalog
from repro.storage.object_store import ObjectStore
from tests.conftest import small_config


def count(table):
    return Aggregate(TableScan(table, ("id",)), (), {"n": ("count", None)})


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


def loaded(rows):
    warehouse = Warehouse(config=small_config(), auto_optimize=False)
    s = warehouse.session()
    s.create_table("t", Schema.of(("id", "int64"), ("v", "float64")),
                   distribution_column="id")
    s.insert("t", ids(rows))
    return warehouse


@pytest.fixture
def dw():
    return loaded(10)


def test_restore_recovers_dropped_state(dw):
    backup = dw.backup()
    dw.session().delete("t", BinOp(">=", Col("id"), Lit(0)))
    assert dw.session().query(count("t"))["n"][0] == 0
    dw.restore(backup)
    assert dw.session().query(count("t"))["n"][0] == 10


def test_restore_point_in_time(dw):
    t1 = dw.clock.now
    dw.session().insert("t", ids(20, start=100))
    backup = dw.backup()
    dw.restore(backup, as_of=t1)
    assert dw.session().query(count("t"))["n"][0] == 10


def test_backup_is_metadata_only():
    """Backup copies no data: its size does not grow with the table's data."""
    sizes = []
    for rows in (10, 10_000):
        warehouse = loaded(rows)
        data_bytes = sum(
            blob.size for blob in warehouse.store.list("internal/") if "/data/" in blob.path
        )
        sizes.append((data_bytes, len(warehouse.backup())))
    (small_data, small_backup), (big_data, big_backup) = sizes
    assert big_data > 40 * small_data
    # The same catalog rows; only the timestamps' digits may differ.
    assert big_backup <= small_backup + 32


def test_new_writes_after_restore(dw):
    backup = dw.backup()
    dw.restore(backup)
    dw.session().insert("t", ids(5, start=500))
    assert dw.session().query(count("t"))["n"][0] == 15


def test_new_tables_after_restore_get_fresh_ids(dw):
    backup = dw.backup()
    dw.restore(backup)
    session = dw.session()
    tid = session.create_table("u", Schema.of(("id", "int64"), ("v", "float64")))
    assert tid > 1001
    session.insert("u", ids(3))
    assert dw.session().query(count("u"))["n"][0] == 3


def test_restore_with_active_txn_rejected(dw):
    backup = dw.backup()
    session = dw.session()
    session.begin()
    session.query(count("t"))
    with pytest.raises(TransactionStateError):
        dw.restore(backup)
    session.rollback()


def test_restore_then_gc_reclaims_unreferenced(dw):
    t1 = dw.clock.now
    dw.session().insert("t", ids(50, start=1000))
    newer_files = {
        f.path
        for f in dw.session().table_snapshot("t").files.values()
    }
    backup = dw.backup()
    dw.restore(backup, as_of=t1)
    restored_files = {
        f.path for f in dw.session().table_snapshot("t").files.values()
    }
    orphaned = newer_files - restored_files
    assert orphaned
    report = dw.sto.run_gc()
    assert set(report.deleted) >= orphaned
    # Restored table still fully readable.
    assert dw.session().query(count("t"))["n"][0] == 10


def test_writes_after_restoring_an_older_backup_get_fresh_names(dw, monkeypatch):
    """Files, manifests and staged blocks are named after their writer's
    txid: a restore keeps the txid sequence going, so nothing written
    after it can meet a name written before it."""
    written = []
    put, stage_block = ObjectStore.put, ObjectStore.stage_block

    def recorded_put(self, path, data, *args, **kwargs):
        written.append(path)
        return put(self, path, data, *args, **kwargs)

    def recorded_stage_block(self, path, block_id, data):
        written.append(f"{path}#{block_id}")
        return stage_block(self, path, block_id, data)

    monkeypatch.setattr(ObjectStore, "put", recorded_put)
    monkeypatch.setattr(ObjectStore, "stage_block", recorded_stage_block)
    old = dw.backup()
    session = dw.session()
    session.insert("t", ids(20, start=100))
    session.update("t", BinOp("<", Col("id"), Lit(5)), {"v": Lit(1.0)})
    before = set(written) | {blob.path for blob in dw.store.list("internal/")}
    del written[:]

    dw.restore(old)
    session = dw.session()
    session.insert("t", ids(20, start=200))
    session.update("t", BinOp("<", Col("id"), Lit(5)), {"v": Lit(2.0)})
    session.delete("t", BinOp(">=", Col("id"), Lit(215)))
    txn = dw.context.sqldb.begin()
    try:
        table_id = catalog.find_table_by_name(txn, "t")["table_id"]
    finally:
        txn.abort()
    assert dw.sto.run_compaction(table_id).files_created

    names = {path.rsplit("/", 1)[-1] for path in before}
    assert written and not set(written) & before
    assert not {path.rsplit("/", 1)[-1] for path in written} & names
    assert dw.session().query(count("t"))["n"][0] == 10 + 15
