"""Tests for manifest-log truncation during garbage collection."""

import numpy as np
import pytest

from repro import Aggregate, Schema, TableScan, Warehouse
from repro.common.errors import CheckpointLostError
from repro.fe.backup import create_backup, restore_backup
from repro.sqldb import system_tables as st
from tests.conftest import small_config


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


def count(table="t"):
    return Aggregate(TableScan(table, ("id",)), (), {"n": ("count", None)})


@pytest.fixture
def dw():
    warehouse = Warehouse(config=small_config(), auto_optimize=False)
    session = warehouse.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    return warehouse


def manifest_rows(dw, table_id=1001):
    txn = dw.context.sqldb.begin()
    try:
        return st.manifests_for_table(txn, table_id)
    finally:
        txn.abort()


def test_covered_expired_manifests_truncated(dw):
    session = dw.session()
    for i in range(6):
        session.insert("t", ids(10, start=i * 10))
    dw.sto.run_checkpoint(1001)
    assert len(manifest_rows(dw)) == 6
    dw.clock.advance(dw.config.sto.retention_period_s + 1)
    dw.sto.run_gc()
    # All covered manifests truncated except the newest (the anchor).
    remaining = manifest_rows(dw)
    assert len(remaining) == 1
    # Blobs gone from storage too.
    manifests_on_disk = [
        b for b in dw.store.list("internal/") if "_manifests" in b.path
    ]
    assert len(manifests_on_disk) == 1


def test_table_fully_readable_after_truncation(dw):
    session = dw.session()
    for i in range(6):
        session.insert("t", ids(10, start=i * 10))
    dw.sto.run_checkpoint(1001)
    dw.clock.advance(dw.config.sto.retention_period_s + 1)
    dw.sto.run_gc()
    dw.context.cache.invalidate()
    assert dw.session().query(count())["n"][0] == 60
    # New writes continue normally after truncation.
    session.insert("t", ids(10, start=1000))
    assert dw.session().query(count())["n"][0] == 70


def test_uncheckpointed_manifests_never_truncated(dw):
    session = dw.session()
    for i in range(4):
        session.insert("t", ids(10, start=i * 10))
    dw.clock.advance(dw.config.sto.retention_period_s + 1)
    dw.sto.run_gc()  # no checkpoint exists: nothing is covered
    assert len(manifest_rows(dw)) == 4
    assert dw.session().query(count())["n"][0] == 40


def test_manifests_within_retention_kept(dw):
    session = dw.session()
    for i in range(4):
        session.insert("t", ids(10, start=i * 10))
    dw.sto.run_checkpoint(1001)
    dw.sto.run_gc()  # retention has not passed
    assert len(manifest_rows(dw)) == 4


def test_clone_shared_manifests_respect_both_tables(dw):
    """A truncated source manifest shared with a clone must keep its blob
    until the clone can also truncate it."""
    session = dw.session()
    for i in range(4):
        session.insert("t", ids(10, start=i * 10))
    session.clone_table("t", "t2")
    dw.sto.run_checkpoint(1001)  # checkpoint only the source
    dw.clock.advance(dw.config.sto.retention_period_s + 1)
    dw.sto.run_gc()
    # Source rows truncated (all but anchor), clone rows intact.
    assert len(manifest_rows(dw, 1001)) == 1
    assert len(manifest_rows(dw, 1002)) == 4
    # Shared blobs survive because the clone still references them.
    dw.context.cache.invalidate()
    assert dw.session().query(count("t2"))["n"][0] == 40
    assert dw.session().query(count("t"))["n"][0] == 40


def test_time_travel_within_retention_still_works(dw):
    session = dw.session()
    session.insert("t", ids(10))
    t1 = dw.clock.now
    for i in range(1, 5):
        session.insert("t", ids(10, start=i * 10))
    dw.sto.run_checkpoint(1001)
    dw.sto.run_gc()  # nothing expired: history intact
    assert session.query(count(), as_of=t1)["n"][0] == 10


# -- a checkpoint is the source of truth once its manifests are truncated ----


def truncate_behind_checkpoint(dw):
    """Six inserts, a checkpoint over them, then a GC past retention that
    truncates all but the newest manifest.  Returns the checkpoint path."""
    session = dw.session()
    for i in range(6):
        session.insert("t", ids(10, start=i * 10))
    path = dw.sto.run_checkpoint(1001).path
    dw.clock.advance(dw.config.sto.retention_period_s + 1)
    dw.sto.run_gc()
    assert len(manifest_rows(dw)) == 1
    return path


def truncation_mark(dw, table_id=1001):
    txn = dw.context.sqldb.begin()
    try:
        return st.truncated_through(txn, table_id)
    finally:
        txn.abort()


def test_gc_records_how_far_it_truncated(dw):
    assert truncation_mark(dw) == 0
    truncate_behind_checkpoint(dw)
    remaining = manifest_rows(dw)[0]["sequence_id"]
    assert 0 < truncation_mark(dw) < remaining


def test_corrupt_checkpoint_after_truncation_fails_and_flags_red(dw):
    """Replay around the rotten checkpoint would serve only the surviving
    tail (10 of 60 rows); the read must fail instead."""
    path = truncate_behind_checkpoint(dw)
    dw.store.damage(path, "bit_flip")
    dw.context.cache.invalidate()
    with pytest.raises(CheckpointLostError, match=path):
        dw.session().query(count())
    report = dw.sto.run_scrub()
    (record,) = [r for r in report.records if r.path == path]
    assert record.action == "unrepairable"
    assert dw.sto.health.integrity_compromised(1001)


def test_checkpoint_with_bad_content_after_truncation_fails(dw):
    path = truncate_behind_checkpoint(dw)
    dw.store.put(path, b'{"sequence_id": 6}', overwrite=True)
    dw.context.cache.invalidate()
    with pytest.raises(CheckpointLostError):
        dw.session().query(count())


def test_corrupt_checkpoint_before_truncation_degrades_to_replay(dw):
    session = dw.session()
    for i in range(6):
        session.insert("t", ids(10, start=i * 10))
    path = dw.sto.run_checkpoint(1001).path
    dw.store.damage(path, "bit_flip")
    dw.context.cache.invalidate()
    assert dw.session().query(count())["n"][0] == 60


def test_checkpoint_with_bad_content_degrades_to_replay(dw):
    """Valid blob metadata, malformed JSON content: still only a lost
    acceleration while the manifests survive."""
    session = dw.session()
    for i in range(6):
        session.insert("t", ids(10, start=i * 10))
    path = dw.sto.run_checkpoint(1001).path
    dw.store.put(path, b'{"sequence_id": 6}', overwrite=True)
    dw.context.cache.invalidate()
    assert dw.session().query(count())["n"][0] == 60


def test_restore_keeps_the_truncation_mark(dw):
    truncate_behind_checkpoint(dw)
    mark = truncation_mark(dw)
    restore_backup(dw.context, create_backup(dw.context))
    assert truncation_mark(dw) == mark
    assert dw.session().query(count())["n"][0] == 60


def test_clone_of_a_truncated_table_reads_all_of_it(dw):
    """The clone shares the checkpoint that stands in for the truncated
    manifests (it read 10 of 60 rows when only manifests were copied)."""
    truncate_behind_checkpoint(dw)
    dw.session().clone_table("t", "t2")
    dw.context.cache.invalidate()
    assert dw.session().query(count("t2"))["n"][0] == 60
    assert truncation_mark(dw, 1002) == truncation_mark(dw)
    # The source superseding and collecting its checkpoint must not take
    # the clone's base with it.
    session = dw.session()
    for i in range(6):
        session.insert("t", ids(10, start=1000 + i * 10))
    dw.sto.run_checkpoint(1001)
    dw.clock.advance(dw.config.sto.retention_period_s + 1)
    dw.sto.run_gc()
    dw.context.cache.invalidate()
    assert dw.session().query(count("t2"))["n"][0] == 60
    assert dw.session().query(count("t"))["n"][0] == 120
