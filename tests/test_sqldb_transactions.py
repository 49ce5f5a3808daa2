"""Tests for the catalog engine: MVCC visibility, conflicts, isolation."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.common.errors import (
    SerializationError,
    TransactionStateError,
    WriteConflictError,
)
from repro.sqldb import IsolationLevel, SqlDbEngine, system_tables


@pytest.fixture
def engine():
    return SqlDbEngine()


class TestBasics:
    def test_read_your_own_writes(self, engine):
        txn = engine.begin()
        txn.put("T", (1,), {"v": 1})
        assert txn.get("T", (1,)) == {"v": 1}

    def test_uncommitted_invisible_to_others(self, engine):
        a = engine.begin()
        a.put("T", (1,), {"v": 1})
        b = engine.begin()
        assert b.get("T", (1,)) is None

    def test_committed_visible_to_new_txns(self, engine):
        a = engine.begin()
        a.put("T", (1,), {"v": 1})
        a.commit()
        assert engine.begin().get("T", (1,)) == {"v": 1}

    def test_delete_hides_row(self, engine):
        a = engine.begin()
        a.put("T", (1,), {"v": 1})
        a.commit()
        b = engine.begin()
        b.delete("T", (1,))
        assert b.get("T", (1,)) is None
        b.commit()
        assert engine.begin().get("T", (1,)) is None

    def test_abort_discards_writes(self, engine):
        a = engine.begin()
        a.put("T", (1,), {"v": 1})
        a.abort()
        assert engine.begin().get("T", (1,)) is None

    def test_read_only_commit_consumes_no_sequence(self, engine):
        before = engine.last_commit_seq
        txn = engine.begin()
        txn.get("T", (1,))
        assert txn.commit() is None
        assert engine.last_commit_seq == before

    def test_write_commit_returns_sequence(self, engine):
        a = engine.begin()
        a.put("T", (1,), {})
        seq1 = a.commit()
        b = engine.begin()
        b.put("T", (2,), {})
        assert b.commit() == seq1 + 1

    def test_operations_after_commit_rejected(self, engine):
        txn = engine.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.get("T", (1,))
        with pytest.raises(TransactionStateError):
            txn.put("T", (1,), {})

    def test_abort_after_commit_rejected(self, engine):
        txn = engine.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.abort()

    def test_abort_is_idempotent(self, engine):
        txn = engine.begin()
        txn.abort()
        txn.abort()

    def test_returned_rows_are_copies(self, engine):
        a = engine.begin()
        a.put("T", (1,), {"v": 1})
        a.commit()
        b = engine.begin()
        row = b.get("T", (1,))
        row["v"] = 999
        assert b.get("T", (1,)) == {"v": 1}


class TestSnapshotIsolation:
    def test_repeatable_reads(self, engine):
        setup = engine.begin()
        setup.put("T", (1,), {"v": "old"})
        setup.commit()
        reader = engine.begin()
        assert reader.get("T", (1,))["v"] == "old"
        writer = engine.begin()
        writer.put("T", (1,), {"v": "new"})
        writer.commit()
        assert reader.get("T", (1,))["v"] == "old"  # no non-repeatable read

    def test_no_phantoms_in_scan(self, engine):
        reader = engine.begin()
        assert list(reader.scan("T")) == []
        writer = engine.begin()
        writer.put("T", (1,), {"v": 1})
        writer.commit()
        assert list(reader.scan("T")) == []  # snapshot fixed at begin

    def test_no_dirty_reads(self, engine):
        writer = engine.begin()
        writer.put("T", (1,), {"v": 1})
        reader = engine.begin()
        assert reader.get("T", (1,)) is None

    def test_scan_sees_own_inserts(self, engine):
        txn = engine.begin()
        txn.put("T", (1,), {"v": 1})
        assert [r["v"] for r in txn.scan("T")] == [1]

    def test_scan_respects_own_deletes(self, engine):
        setup = engine.begin()
        setup.put("T", (1,), {"v": 1})
        setup.commit()
        txn = engine.begin()
        txn.delete("T", (1,))
        assert list(txn.scan("T")) == []

    def test_scan_predicate(self, engine):
        setup = engine.begin()
        for i in range(5):
            setup.put("T", (i,), {"v": i})
        setup.commit()
        txn = engine.begin()
        assert len(list(txn.scan("T", lambda r: r["v"] >= 3))) == 2

    def test_scan_is_in_key_order_whatever_the_install_order(self, engine):
        """Keys installed out of order, over several commits and beside
        another table's, come back sorted — from ``scan`` and
        ``dump_table`` alike (the store keeps each table's keys ordered)."""
        for batch in ([(5, "b"), (1, "z")], [(3, "a")], [(1, "a"), (4, "c")]):
            txn = engine.begin()
            for pk in batch:
                txn.put("T", pk, {"pk": pk})
                txn.put("Other", pk[::-1], {"pk": pk})
            txn.commit()
        want = [(1, "a"), (1, "z"), (3, "a"), (4, "c"), (5, "b")]
        assert [row["pk"] for row in engine.begin().scan("T")] == want
        assert [row["pk"] for row in engine.dump_table("T")] == want
        assert len(engine.dump_table("Other")) == 5

    def test_a_suspended_scan_is_not_disturbed_by_a_later_commit(self, engine):
        setup = engine.begin()
        for i in (2, 4, 6):
            setup.put("T", (i,), {"v": i})
        setup.commit()
        rows = engine.begin().scan("T")
        assert next(rows)["v"] == 2
        writer = engine.begin()
        writer.put("T", (1,), {"v": 1})
        writer.put("T", (3,), {"v": 3})
        writer.commit()
        assert [row["v"] for row in rows] == [4, 6]


class TestWriteConflicts:
    def test_first_committer_wins(self, engine):
        setup = engine.begin()
        setup.put("T", (1,), {"v": 0})
        setup.commit()
        a = engine.begin()
        b = engine.begin()
        a.put("T", (1,), {"v": "a"})
        b.put("T", (1,), {"v": "b"})
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        assert engine.begin().get("T", (1,))["v"] == "a"

    def test_loser_is_aborted(self, engine):
        a = engine.begin()
        b = engine.begin()
        a.put("T", (1,), {})
        b.put("T", (1,), {})
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        with pytest.raises(TransactionStateError):
            b.get("T", (1,))

    def test_disjoint_writes_both_commit(self, engine):
        a = engine.begin()
        b = engine.begin()
        a.put("T", (1,), {})
        b.put("T", (2,), {})
        a.commit()
        b.commit()

    def test_sequential_writes_no_conflict(self, engine):
        a = engine.begin()
        a.put("T", (1,), {"v": 1})
        a.commit()
        b = engine.begin()  # begins after a committed
        b.put("T", (1,), {"v": 2})
        b.commit()

    def test_upsert_conflict(self, engine):
        a = engine.begin()
        b = engine.begin()
        a.upsert("W", (9,), lambda old: {"updated": (old or {}).get("updated", 0) + 1})
        b.upsert("W", (9,), lambda old: {"updated": (old or {}).get("updated", 0) + 1})
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()

    def test_blind_insert_conflict_on_same_key(self, engine):
        a = engine.begin()
        b = engine.begin()
        a.put("T", (7,), {"v": "a"})
        b.put("T", (7,), {"v": "b"})
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()


class TestRcsi:
    def test_reads_see_recent_commits(self, engine):
        reader = engine.begin(IsolationLevel.RCSI)
        writer = engine.begin()
        writer.put("T", (1,), {"v": 1})
        writer.commit()
        assert reader.get("T", (1,)) == {"v": 1}

    def test_statement_level_snapshot_advances(self, engine):
        reader = engine.begin(IsolationLevel.RCSI)
        assert reader.get("T", (1,)) is None
        writer = engine.begin()
        writer.put("T", (1,), {"v": 1})
        writer.commit()
        assert reader.get("T", (1,)) is not None


class TestSerializable:
    def test_read_write_overlap_rejected(self, engine):
        setup = engine.begin()
        setup.put("T", (1,), {"v": 0})
        setup.commit()
        a = engine.begin(IsolationLevel.SERIALIZABLE)
        assert a.get("T", (1,))["v"] == 0
        b = engine.begin()
        b.put("T", (1,), {"v": 1})
        b.commit()
        a.put("T", (2,), {"v": "derived"})
        with pytest.raises(SerializationError):
            a.commit()

    def test_phantom_protection_on_scans(self, engine):
        a = engine.begin(IsolationLevel.SERIALIZABLE)
        list(a.scan("T"))
        b = engine.begin()
        b.put("T", (1,), {})
        b.commit()
        a.put("Other", (1,), {})
        with pytest.raises(SerializationError):
            a.commit()

    def test_write_skew_prevented(self, engine):
        """The classic SI anomaly: serializable mode must reject it."""
        setup = engine.begin()
        setup.put("T", ("x",), {"v": 1})
        setup.put("T", ("y",), {"v": 1})
        setup.commit()
        a = engine.begin(IsolationLevel.SERIALIZABLE)
        b = engine.begin(IsolationLevel.SERIALIZABLE)
        # Each reads both rows, writes the other one.
        assert a.get("T", ("x",)) and a.get("T", ("y",))
        assert b.get("T", ("x",)) and b.get("T", ("y",))
        a.put("T", ("x",), {"v": 0})
        b.put("T", ("y",), {"v": 0})
        a.commit()
        with pytest.raises(SerializationError):
            b.commit()

    def test_write_skew_allowed_under_snapshot(self, engine):
        """Under plain SI, write skew commits — the documented trade-off."""
        setup = engine.begin()
        setup.put("T", ("x",), {"v": 1})
        setup.put("T", ("y",), {"v": 1})
        setup.commit()
        a = engine.begin()
        b = engine.begin()
        a.get("T", ("y",))
        b.get("T", ("x",))
        a.put("T", ("x",), {"v": 0})
        b.put("T", ("y",), {"v": 0})
        a.commit()
        b.commit()  # no error: SI permits this anomaly

    def test_non_overlapping_serializable_commits(self, engine):
        a = engine.begin(IsolationLevel.SERIALIZABLE)
        list(a.scan("A"))
        a.put("A", (1,), {})
        a.commit()


class TestEngineState:
    def test_active_transactions_tracked(self, engine):
        a = engine.begin()
        b = engine.begin()
        assert len(engine.active_transactions) == 2
        a.commit()
        assert len(engine.active_transactions) == 1
        b.abort()
        assert engine.active_transactions == []

    def test_min_active_begin_ts(self, engine):
        assert engine.min_active_begin_ts() is None
        engine.clock.advance(5.0)
        a = engine.begin()
        engine.clock.advance(5.0)
        engine.begin()
        assert engine.min_active_begin_ts() == a.begin_ts == 5.0

    def test_stats_counters(self, engine):
        a = engine.begin()
        a.put("T", (1,), {})
        a.commit()
        b = engine.begin()
        b.abort()
        assert engine.stats["committed"] == 1
        assert engine.stats["aborted"] == 1

    def test_dump_table_as_of(self, engine):
        a = engine.begin()
        a.put("T", (1,), {"v": 1})
        seq1 = a.commit()
        b = engine.begin()
        b.put("T", (2,), {"v": 2})
        b.commit()
        assert len(engine.dump_table("T")) == 2
        assert len(engine.dump_table("T", as_of_seq=seq1)) == 1

    def test_advance_commit_seq_past(self, engine):
        engine.advance_commit_seq_past(100)
        a = engine.begin()
        a.put("T", (1,), {})
        assert a.commit() > 100

    def test_pre_install_hook_receives_sequence(self, engine):
        captured = []
        txn = engine.begin()
        txn.put("T", (1,), {})
        txn.set_pre_install_hook(
            lambda seq: (captured.append(seq), txn.put("S", (seq,), {"seq": seq}))
        )
        commit_seq = txn.commit()
        assert captured == [commit_seq]
        assert engine.begin().get("S", (commit_seq,)) == {"seq": commit_seq}


class TestManifestStamping:
    """A new commit sequence exists only inside the commit lock, so a
    ``Manifests`` row may carry one only when stamped there."""

    @staticmethod
    def stamp(txn, sequence_id):
        system_tables.insert_manifest(txn, 1, "m", sequence_id, txn.txid, 0.0, "p")

    def test_a_new_sequence_outside_the_lock_raises(self, engine):
        txn = engine.begin()
        with pytest.raises(AssertionError, match="outside the commit lock"):
            self.stamp(txn, engine.last_commit_seq + 1)

    def test_the_pre_install_hook_stamps_under_the_lock(self, engine):
        txn = engine.begin()
        txn.set_pre_install_hook(lambda seq: self.stamp(txn, seq))
        commit_seq = txn.commit()
        rows = system_tables.manifests_for_table(engine.begin(), 1)
        assert [row["sequence_id"] for row in rows] == [commit_seq]

    def test_historical_sequences_need_no_lock(self, engine):
        # A zero-copy clone re-inserts rows it read: ids already committed.
        first = engine.begin()
        first.put("T", (1,), {})
        seq = first.commit()
        clone = engine.begin()
        self.stamp(clone, seq)
        clone.commit()

    def test_every_fe_commit_stamps_its_manifests_under_the_lock(self):
        # Fails on every commit if the FE stamps rows with
        # ``last_commit_seq + 1`` before taking the lock.
        dw = Warehouse(auto_optimize=False)
        session = dw.session()
        schema = Schema.of(("id", "int64"), ("v", "float64"))
        for name in ("a", "b"):
            session.create_table(name, schema)
        session.begin()
        for name in ("a", "b"):
            session.insert(name, {"id": np.arange(3), "v": np.zeros(3)})
        commit_seq = session.commit()
        assert session.table_snapshot("a").sequence_id == commit_seq
        assert session.table_snapshot("b").sequence_id == commit_seq
