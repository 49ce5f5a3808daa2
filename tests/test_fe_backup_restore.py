"""Tests for zero-data-copy backup and restore (Section 6.3)."""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.common.errors import TransactionStateError
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
