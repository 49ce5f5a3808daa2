"""Tombstones expire with retention: replay, checkpoints and GC.

Replay drops a tombstone once ``removed_at + retention <= committed_at``
of the manifest being applied.  These tests pin the rule where it can
break: checkpoint + tail replay must still equal full replay exactly, a
table's newest checkpoint must stop growing with its age, and GC must
keep every file a reader inside retention (or a clone) can still reach
while deleting the ones whose tombstone expired.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.common.errors import CheckpointLostError
from repro.lst import Checkpoint, replay
from repro.sqldb import system_tables as catalog
from tests.conftest import small_config
from tests.test_properties import manifest_histories


# -- replay ---------------------------------------------------------------------


@st.composite
def timed_histories(draw):
    """A valid manifest history with non-decreasing commit times (ties
    allowed) and a retention of 0, a finite span, or infinity."""
    history = draw(manifest_histories())
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),
            min_size=len(history),
            max_size=len(history),
        )
    )
    timed, now = [], 0.0
    for (seq, __, actions), gap in zip(history, gaps):
        now += gap
        timed.append((seq, now, actions))
    retention = draw(
        st.one_of(
            st.just(0.0),
            st.just(math.inf),
            st.floats(min_value=0.5, max_value=20.0),
        )
    )
    return timed, retention


@given(timed_histories(), st.integers(min_value=0, max_value=15))
@settings(max_examples=150, deadline=None)
def test_checkpoint_plus_tail_equals_full_replay_with_expiry(timed, cut):
    history, retention = timed
    cut = min(cut, len(history))
    full = replay(history, retention=retention)
    prefix = replay(history[:cut], retention=retention)
    restored = Checkpoint.from_bytes(Checkpoint.of(prefix, 0.0).to_bytes()).snapshot
    resumed = replay(history[cut:], base=restored, retention=retention)
    assert resumed.files == full.files
    assert resumed.dvs == full.dvs
    assert resumed.tombstones == full.tombstones


@given(timed_histories())
@settings(max_examples=150, deadline=None)
def test_replay_keeps_exactly_the_tombstones_inside_retention(timed):
    history, retention = timed
    for k in range(1, len(history) + 1):
        last_commit = history[k - 1][1]
        bounded = replay(history[:k], retention=retention)
        full = replay(history[:k], retention=math.inf)
        assert all(
            t.removed_at + retention > last_commit for t in bounded.tombstones
        )
        assert bounded.tombstones == [
            t for t in full.tombstones if t.removed_at + retention > last_commit
        ]
        assert bounded.files == full.files
        assert bounded.dvs == full.dvs


# -- deployments ---------------------------------------------------------------------


RETENTION_S = 600.0


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


def count(table="t"):
    return Aggregate(TableScan(table, ("id",)), (), {"n": ("count", None)})


@pytest.fixture
def dw():
    config = small_config()
    config.sto.retention_period_s = RETENTION_S
    warehouse = Warehouse(config=config, auto_optimize=False)
    warehouse.session().create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    return warehouse


def table_id(dw, name="t"):
    txn = dw.context.sqldb.begin()
    try:
        return catalog.find_table_by_name(txn, name)["table_id"]
    finally:
        txn.abort()


def remove_files(dw, session):
    """Delete half of t's 100 rows and compact: the old data files and
    their DVs are removed.  Returns the removed paths."""
    before = session.table_snapshot("t")
    session.delete("t", BinOp("<", Col("id"), Lit(50)))
    dw.sto.run_compaction(table_id(dw))
    after = session.table_snapshot("t")
    removed = {f.path for f in before.files.values()} - {
        f.path for f in after.files.values()
    }
    assert removed
    return removed


def newest_checkpoint_tombstones(dw, tid):
    txn = dw.context.sqldb.begin()
    try:
        row = catalog.latest_checkpoint(txn, tid, dw.context.sqldb.last_commit_seq)
    finally:
        txn.abort()
    blob = dw.store.get(row["path"])
    return len(Checkpoint.from_bytes(blob.data).snapshot.tombstones)


def contention_shaped_run(windows: int) -> int:
    """Trickle commits, compaction, checkpoints and GC over ``windows``
    retention periods; returns the newest checkpoint's tombstone count."""
    config = small_config()
    config.sto.retention_period_s = RETENTION_S
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    tid = table_id(dw)
    think_s = RETENTION_S / 15
    for step in range(int(windows * RETENTION_S / think_s)):
        session.insert("t", ids(5, start=step * 5))
        if step % 5 == 4:
            dw.sto.run_compaction(tid)
        if step % 10 == 9:
            dw.sto.run_checkpoint(tid)
        if step % 15 == 14:
            dw.sto.run_gc()
        dw.clock.advance(think_s)
    session.insert("t", ids(5, start=-5))
    dw.sto.run_checkpoint(tid)
    return newest_checkpoint_tombstones(dw, tid)


def test_newest_checkpoint_does_not_grow_with_table_age():
    young = contention_shaped_run(windows=2)
    old = contention_shaped_run(windows=8)
    assert young > 0
    assert abs(old - young) <= 0.1 * young, (young, old)


class TestGcAfterExpiry:
    def test_file_removed_inside_retention_survives(self, dw):
        session = dw.session()
        session.insert("t", ids(100))
        removed = remove_files(dw, session)
        for i in range(10):
            dw.clock.advance(RETENTION_S / 20)
            session.insert("t", ids(10, start=1000 + 10 * i))
            if i % 2:
                dw.sto.run_checkpoint(table_id(dw))
            dw.sto.run_gc()
        assert all(dw.store.exists(path) for path in removed)
        tombstoned = {t.path for t in session.table_snapshot("t").tombstones}
        assert removed <= tombstoned

    def test_file_whose_tombstone_expired_is_deleted_by_next_gc(self, dw):
        session = dw.session()
        session.insert("t", ids(100))
        removed = remove_files(dw, session)
        dw.clock.advance(RETENTION_S + 1.0)
        session.insert("t", ids(10, start=1000))  # the commit that expires them
        tombstoned = {t.path for t in session.table_snapshot("t").tombstones}
        assert not (removed & tombstoned)
        report = dw.sto.run_gc()
        assert removed <= set(report.deleted_orphans)
        assert not any(dw.store.exists(path) for path in removed)
        assert dw.session().query(count())["n"][0] == 60

    def test_file_live_in_a_clone_survives(self, dw):
        session = dw.session()
        session.insert("t", ids(100))
        session.clone_table("t", "t2")
        removed = remove_files(dw, session)
        dw.clock.advance(RETENTION_S + 1.0)
        session.insert("t", ids(10, start=1000))
        dw.sto.run_checkpoint(table_id(dw))
        dw.sto.run_gc()
        assert all(dw.store.exists(path) for path in removed)
        dw.context.cache.invalidate()
        assert dw.session().query(count("t2"))["n"][0] == 100
        assert dw.session().query(count("t"))["n"][0] == 60

    def test_as_of_at_the_retention_edge_still_reads(self, dw):
        session = dw.session()
        session.insert("t", ids(100))
        dw.clock.advance(10.0)
        edge = dw.clock.now
        dw.clock.advance(10.0)
        removed = remove_files(dw, session)
        dw.clock.advance(edge + RETENTION_S - 5.0 - dw.clock.now)
        session.insert("t", ids(10, start=1000))
        dw.sto.run_gc()
        assert all(dw.store.exists(path) for path in removed)
        # Half a second inside the window: the query's own simulated
        # latency must not push ``edge`` out of it.
        dw.clock.advance(edge + RETENTION_S - 0.5 - dw.clock.now)
        dw.context.cache.invalidate()
        assert dw.session().query(count(), as_of=edge)["n"][0] == 100

    def test_as_of_at_the_retention_edge_after_truncation(self, dw):
        session = dw.session()
        session.insert("t", ids(100))
        dw.clock.advance(10.0)
        edge = dw.clock.now
        dw.clock.advance(10.0)
        remove_files(dw, session)
        dw.clock.advance(edge + RETENTION_S - 5.0 - dw.clock.now)
        session.insert("t", ids(10, start=1000))
        dw.sto.run_checkpoint(table_id(dw))
        dw.sto.run_gc()
        dw.clock.advance(edge + RETENTION_S - 0.5 - dw.clock.now)
        dw.context.cache.invalidate()
        assert dw.session().query(count(), as_of=edge)["n"][0] == 100

    def test_clone_as_of_the_retention_edge_after_truncation(self, dw):
        session = dw.session()
        session.insert("t", ids(100))
        dw.sto.run_checkpoint(table_id(dw))
        dw.clock.advance(10.0)
        edge = dw.clock.now
        dw.clock.advance(10.0)
        remove_files(dw, session)
        dw.clock.advance(edge + RETENTION_S - 5.0 - dw.clock.now)
        session.insert("t", ids(10, start=1000))
        dw.sto.run_checkpoint(table_id(dw))
        dw.sto.run_gc()
        dw.clock.advance(edge + RETENTION_S - 0.5 - dw.clock.now)
        session.clone_table("t", "t_edge", as_of=edge)
        dw.context.cache.invalidate()
        assert dw.session().query(count("t_edge"))["n"][0] == 100

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_an_open_transaction_keeps_its_snapshot_past_retention(self, dw, checkpointed):
        writer, reader = dw.session(), dw.session()
        writer.insert("t", ids(100))
        reader.begin()
        assert reader.query(count())["n"][0] == 100
        removed = remove_files(dw, writer)
        for step in range(3):
            dw.clock.advance(RETENTION_S / 2 + 1.0)
            writer.insert("t", ids(10, start=1000 + 10 * step))
            if checkpointed:
                dw.sto.run_checkpoint(table_id(dw))
            dw.sto.run_gc()
        assert all(dw.store.exists(path) for path in removed)
        dw.context.cache.invalidate()
        try:
            assert reader.query(count())["n"][0] == 100
        except CheckpointLostError as exc:
            pytest.fail(f"GC truncated what an open transaction reads: {exc}")
        reader.commit()
        report = dw.sto.run_gc()
        assert removed <= set(report.deleted_expired) | set(report.deleted_orphans)
