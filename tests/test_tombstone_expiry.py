"""GC by reachability: what garbage collection keeps and deletes.

GC keeps, per table, every file and DV live in the state at its horizon
``min(now - retention, oldest open begin)`` plus every one a manifest
after the horizon adds, across all tables at once (clones share files),
and deletes what no table keeps once it is older than the oldest open
transaction.  These tests pin the rule where it can break: a reader
inside retention, a clone, an ``AS OF`` at the retention edge (before
and after truncation), an open transaction aged past retention — and,
generated, any history of adds, removes and DVs on a table and its
clone.  A table's newest checkpoint holds live files only, so it stops
growing with the table's age.

A removal is recorded only by its manifest's remove action (Delta Lake
calls those tombstones).  On replay, the keep set is exactly what the
old rule kept: the live files plus those whose removal is inside
retention.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.chaos.harness import check_storage_bounded
from repro.common.errors import CheckpointLostError
from repro.lst import Checkpoint, replay
from repro.sqldb import system_tables as catalog
from repro.sto.gc import keep_set
from tests.conftest import small_config
from tests.test_properties import manifest_histories


# -- replay ---------------------------------------------------------------------


@st.composite
def timed_histories(draw):
    """A valid manifest history with non-decreasing commit times (ties
    allowed) and a horizon time: on a commit, between two, before all or
    after all."""
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
    horizon = draw(st.one_of(
        st.sampled_from([t for __, t, __ in timed] or [0.0]),
        st.floats(min_value=-1.0, max_value=now + 1.0),
    ))
    return timed, horizon


def paths(snapshot):
    return {f.path for f in snapshot.files.values()} | {d.path for d in snapshot.dvs.values()}


def split(history, horizon):
    """The manifests committed at or below ``horizon`` and the tail."""
    cut = sum(1 for __, at, __ in history if at <= horizon)
    return history[:cut], history[cut:]


@given(timed_histories())
@settings(max_examples=150, deadline=None)
def test_checkpoint_plus_tail_equals_full_replay_with_expiry(timed):
    """A checkpoint of the state at the horizon plus the tail gives the
    full replay's state and the same keep set."""
    history, horizon = timed
    before, tail = split(history, horizon)
    at_horizon = replay(before)
    restored = Checkpoint.from_bytes(Checkpoint.of(at_horizon, 0.0).to_bytes()).snapshot
    assert restored == at_horizon
    full = replay(history)
    assert replay(tail, base=restored) == full
    assert keep_set(restored, tail) == keep_set(at_horizon, tail)


@given(timed_histories())
@settings(max_examples=150, deadline=None)
def test_replay_keeps_exactly_the_tombstones_inside_retention(timed):
    """The keep set is exactly the live files plus those a manifest after
    the horizon removed — what tombstone expiry used to keep — and
    exactly what the states inside retention name."""
    history, horizon = timed
    before, tail = split(history, horizon)
    state = replay(before)
    keep = keep_set(state, tail)
    named, removed_inside = paths(state), set()
    for seq, __, actions in tail:
        after = state.apply_manifest(actions, seq)
        removed_inside |= paths(state) - paths(after)
        named |= paths(after)
        state = after
    assert keep == paths(state) | removed_inside
    assert keep == named


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


def newest_checkpoint_bytes_per_entry(dw, tid):
    """The newest checkpoint's bytes per live file and DV it holds."""
    txn = dw.context.sqldb.begin()
    try:
        row = catalog.latest_checkpoint(txn, tid, dw.context.sqldb.last_commit_seq)
    finally:
        txn.abort()
    snapshot = dw.context.cache.get(tid, row["sequence_id"])
    return len(dw.store.get(row["path"]).data) / (len(snapshot.files) + len(snapshot.dvs))


def contention_shaped_run(windows: int) -> int:
    """Trickle commits, compaction, checkpoints and GC over ``windows``
    retention periods; returns the newest checkpoint's bytes per entry."""
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
    return newest_checkpoint_bytes_per_entry(dw, tid)


def test_newest_checkpoint_does_not_grow_with_table_age():
    young = contention_shaped_run(windows=2)
    old = contention_shaped_run(windows=8)
    assert young > 0
    assert old <= 1.1 * young, (young, old)


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
        live = session.table_snapshot("t").files.values()
        assert not removed & {f.path for f in live}

    def test_file_whose_tombstone_expired_is_deleted_by_next_gc(self, dw):
        """Its removal is older than retention: no readable state names it."""
        session = dw.session()
        session.insert("t", ids(100))
        removed = remove_files(dw, session)
        dw.clock.advance(RETENTION_S + 1.0)
        report = dw.sto.run_gc()
        assert removed <= set(report.deleted)
        assert not any(dw.store.exists(path) for path in removed)
        dw.context.cache.invalidate()
        assert dw.session().query(count())["n"][0] == 50

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
        assert removed <= set(report.deleted)


# -- generated histories ------------------------------------------------------------

#: What one step does: insert rows, delete some (DVs), compact (removes
#: files), checkpoint, GC, or clone t into t2; on t or on its clone.
STEPS = st.tuples(
    st.sampled_from(["insert", "insert", "delete", "compact", "checkpoint", "gc", "clone"]),
    st.sampled_from(["t", "t2"]),
    # Simulated seconds after the step: none, a little, most of retention.
    st.sampled_from([0.0, 1.0, 250.0]),
)


def counts_by_table(session, tables):
    return {name: session.query(count(name))["n"][0] for name in tables}


def state_at(dw, name, timestamp):
    """The snapshot ``AS OF timestamp`` resolves to, without the retention
    check (the clock moves while the test reads)."""
    tid = table_id(dw, name)
    txn = dw.context.sqldb.begin()
    try:
        rows = catalog.manifests_for_table(txn, tid)
        truncated = catalog.truncated_through(txn, tid)
    finally:
        txn.abort()
    seq = max((r["sequence_id"] for r in rows if r["committed_at"] <= timestamp), default=truncated)
    return dw.context.cache.get(tid, seq)


def missing_blobs(dw, snapshot):
    named = [f.path for f in snapshot.files.values()]
    named += [d.path for d in snapshot.dvs.values()]
    return [path for path in named if not dw.store.exists(path)]


@given(
    steps=st.lists(STEPS, min_size=2, max_size=10),
    reader_at=st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    tie=st.integers(min_value=0, max_value=9),
    later=st.sampled_from([0.0, 100.0, RETENTION_S, 3 * RETENTION_S]),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gc_keeps_every_readable_state_and_nothing_older(steps, reader_at, tie, later):
    """After GC at a random ``now`` — ``later`` past the last step, or with
    the horizon exactly on a commit (``tie``) — every ``AS OF`` inside
    retention and the open transaction's snapshot read every blob they
    name, and no data or DV blob older than the horizon that no readable
    state names is left."""
    config = small_config()
    config.sto.retention_period_s = RETENTION_S
    dw = Warehouse(config=config, auto_optimize=False)
    writer = dw.session()
    writer.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")), distribution_column="id"
    )
    tables, marks, reader, next_id = ["t"], [], None, 0
    for i, (step, name, gap) in enumerate(steps):
        if i == reader_at:
            reader = dw.session()
            reader.begin()
            seen = counts_by_table(reader, tables)
        name = name if name in tables else "t"
        if step == "insert":
            writer.insert(name, ids(8, start=next_id))
            next_id += 8
        elif step == "delete":
            writer.delete(name, BinOp("<", Col("id"), Lit(next_id // 3)))
        elif step == "compact":
            dw.sto.run_compaction(table_id(dw, name))
        elif step == "checkpoint":
            dw.sto.run_checkpoint(table_id(dw, name))
        elif step == "gc":
            dw.sto.run_gc()
        elif "t2" not in tables:
            writer.clone_table("t", "t2")
            tables.append("t2")
        dw.clock.advance(gap)
        counts = counts_by_table(writer, tables)
        marks.append((dw.clock.now, counts))

    txn = dw.context.sqldb.begin()
    try:
        commits = [
            r["committed_at"] for r in catalog.manifests_for_table(txn, table_id(dw))
        ]
    finally:
        txn.abort()
    target = commits[min(tie, len(commits) - 1)] + RETENTION_S if tie % 2 and commits else 0.0
    dw.clock.advance(max(target - dw.clock.now, later))
    dw.sto.run_gc()

    assert check_storage_bounded(dw.context) == []
    dw.context.cache.invalidate()
    edge = dw.clock.now - RETENTION_S
    for at, counts in marks + [(edge, None)]:
        if at < edge:
            continue
        for name in tables if counts is None else counts:
            snapshot = state_at(dw, name, at)
            assert missing_blobs(dw, snapshot) == [], (name, at)
            if counts is not None:
                assert snapshot.live_rows == counts[name], (name, at)
    if reader is not None:
        for name in seen:
            snapshot = reader._txn.committed_snapshot(table_id(dw, name))
            assert missing_blobs(dw, snapshot) == [], name
        assert counts_by_table(reader, seen) == seen
        reader.commit()
