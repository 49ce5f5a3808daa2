"""Tests for the typed system-table accessors."""

import pytest

from repro.common.errors import WriteConflictError
from repro.sqldb import SqlDbEngine
from repro.sqldb import system_tables as st


@pytest.fixture
def engine():
    return SqlDbEngine()


def add_manifest(txn, table_id, seq, name=None):
    st.insert_manifest(
        txn, table_id, name or f"m{seq}", seq, txn.txid, float(seq),
        f"path/{table_id}/{name or f'm{seq}'}",
    )


class TestTables:
    def test_create_and_find(self, engine):
        txn = engine.begin()
        st.insert_table(txn, 1001, "t", [{"name": "c", "type": "int64"}], 0.0)
        txn.commit()
        reader = engine.begin()
        assert st.get_table(reader, 1001)["name"] == "t"
        assert st.find_table_by_name(reader, "t")["table_id"] == 1001
        assert st.find_table_by_name(reader, "ghost") is None

    def test_list_tables(self, engine):
        txn = engine.begin()
        st.insert_table(txn, 1, "a", [], 0.0)
        st.insert_table(txn, 2, "b", [], 0.0)
        txn.commit()
        assert len(st.list_tables(engine.begin())) == 2

    def test_drop_table(self, engine):
        txn = engine.begin()
        st.insert_table(txn, 1, "a", [], 0.0)
        txn.commit()
        txn2 = engine.begin()
        st.drop_table(txn2, 1)
        txn2.commit()
        assert st.get_table(engine.begin(), 1) is None


class TestManifests:
    @pytest.fixture
    def engine(self):
        # The rows below carry ids of commits that already happened, as a
        # restored catalog's do: a new id is stamped only under the lock.
        engine = SqlDbEngine()
        engine.advance_commit_seq_past(10)
        return engine

    def test_ordered_by_sequence(self, engine):
        txn = engine.begin()
        add_manifest(txn, 1, 3)
        add_manifest(txn, 1, 1)
        add_manifest(txn, 1, 2)
        txn.commit()
        rows = st.manifests_for_table(engine.begin(), 1)
        assert [r["sequence_id"] for r in rows] == [1, 2, 3]

    def test_range_filtering(self, engine):
        txn = engine.begin()
        for seq in range(1, 6):
            add_manifest(txn, 1, seq)
        txn.commit()
        rows = st.manifests_for_table(engine.begin(), 1, 1, 4)
        assert [r["sequence_id"] for r in rows] == [2, 3, 4]

    def test_tables_isolated(self, engine):
        txn = engine.begin()
        add_manifest(txn, 1, 1)
        add_manifest(txn, 2, 2)
        txn.commit()
        assert len(st.manifests_for_table(engine.begin(), 1)) == 1

    def test_manifest_path_stored(self, engine):
        txn = engine.begin()
        add_manifest(txn, 7, 1, name="abc")
        txn.commit()
        row = st.manifests_for_table(engine.begin(), 7)[0]
        assert row["manifest_path"] == "path/7/abc"


class TestWriteSets:
    def test_table_granularity_conflict(self, engine):
        a = engine.begin()
        b = engine.begin()
        st.upsert_writeset(a, 10)
        st.upsert_writeset(b, 10)
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()

    def test_different_tables_no_conflict(self, engine):
        a = engine.begin()
        b = engine.begin()
        st.upsert_writeset(a, 10)
        st.upsert_writeset(b, 11)
        a.commit()
        b.commit()

    def test_file_granularity_same_file_conflicts(self, engine):
        a = engine.begin()
        b = engine.begin()
        st.upsert_writeset(a, 10, "f1.rpf")
        st.upsert_writeset(b, 10, "f1.rpf")
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()

    def test_file_granularity_different_files_commit(self, engine):
        a = engine.begin()
        b = engine.begin()
        st.upsert_writeset(a, 10, "f1.rpf")
        st.upsert_writeset(b, 10, "f2.rpf")
        a.commit()
        b.commit()

    def test_updated_counter_increments(self, engine):
        a = engine.begin()
        st.upsert_writeset(a, 10)
        a.commit()
        b = engine.begin()
        st.upsert_writeset(b, 10)
        b.commit()
        row = engine.begin().get(st.WRITESETS, (10,))
        assert row["updated"] == 2


class TestCheckpoints:
    def test_latest_checkpoint_selection(self, engine):
        txn = engine.begin()
        st.insert_checkpoint(txn, 1, 5, "p5", 0.0)
        st.insert_checkpoint(txn, 1, 10, "p10", 1.0)
        txn.commit()
        reader = engine.begin()
        assert st.latest_checkpoint(reader, 1, 20)["sequence_id"] == 10
        assert st.latest_checkpoint(reader, 1, 7)["sequence_id"] == 5
        assert st.latest_checkpoint(reader, 1, 3) is None

    def test_checkpoints_for_table_ordered(self, engine):
        txn = engine.begin()
        st.insert_checkpoint(txn, 1, 10, "p10", 1.0)
        st.insert_checkpoint(txn, 1, 5, "p5", 0.0)
        txn.commit()
        rows = st.checkpoints_for_table(engine.begin(), 1)
        assert [r["sequence_id"] for r in rows] == [5, 10]
