"""Bounded-range seeks: ``SqlDbTransaction.newest`` / ``newest_first``.

A seek walks one bisected key range from its end, overlaying the
transaction's own writes.  Whatever the history — deletes, re-puts, own
writes, writes made by the pre-install hook, bounds below, inside and
above the stored sequences — and under every isolation level, it must
return exactly what filtering a full scan and keeping the maximum
returns.  It must also register the whole table for serializable
validation, as a scan does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.sqldb import system_tables
from repro.sqldb.engine import SqlDbEngine
from repro.sqldb.transaction import IsolationLevel

TABLES = (
    system_tables.MANIFESTS,
    system_tables.TABLE_STATS,
    system_tables.CHECKPOINTS,
)
TABLE_IDS = (1, 2, 3)
#: Bounds probed: below every stored sequence, inside, and above.
BOUNDS = (None, 0, 3, 6, 9)

#: One operation: ("put" | "delete", system table, table_id, sequence_id, tag).
operations = st.tuples(
    st.sampled_from(("put", "put", "delete")),
    st.sampled_from(TABLES),
    st.sampled_from(TABLE_IDS),
    st.integers(1, 6),
    st.integers(0, 99),
)


def _apply(txn, operation) -> None:
    kind, table, table_id, sequence_id, tag = operation
    if kind == "put":
        txn.put(
            table,
            (table_id, sequence_id),
            {"table_id": table_id, "sequence_id": sequence_id, "tag": tag},
        )
    else:
        txn.delete(table, (table_id, sequence_id))


def _in_range(row, table_id, after, upto) -> bool:
    return (
        row["table_id"] == table_id
        and (after is None or row["sequence_id"] > after)
        and (upto is None or row["sequence_id"] <= upto)
    )


def _assert_seek_equals_scan_max(txn) -> None:
    for table in TABLES:
        # A scan yields the transaction's new keys after the stored ones.
        rows = sorted(txn.scan(table), key=lambda r: (r["table_id"], r["sequence_id"]))
        for table_id in TABLE_IDS + (9,):
            for after in BOUNDS:
                for upto in BOUNDS:
                    expected = [
                        row for row in rows if _in_range(row, table_id, after, upto)
                    ]
                    walked = list(txn.newest_first(table, (table_id,), after, upto))
                    assert [hit.row for hit in walked] == expected[::-1]
                    hit = txn.newest(table, (table_id,), after, upto)
                    assert (hit and hit.row) == (expected[-1] if expected else None)
        for table_id in TABLE_IDS:
            for upto in BOUNDS[1:]:
                for after in (0, 2):
                    in_range = [
                        r for r in rows if _in_range(r, table_id, after, upto)
                    ]
                    if table == system_tables.MANIFESTS:
                        assert system_tables.manifests_for_table(
                            txn, table_id, after, upto
                        ) == in_range
                below = [r for r in rows if _in_range(r, table_id, None, upto)]
                newest = below[-1] if below else None
                if table == system_tables.CHECKPOINTS:
                    assert system_tables.latest_checkpoint(txn, table_id, upto) == newest
                if table == system_tables.TABLE_STATS:
                    assert (
                        system_tables.latest_table_stats(txn, table_id, upto) == newest
                    )
            if table == system_tables.MANIFESTS:
                every = [r for r in rows if r["table_id"] == table_id]
                assert system_tables.latest_manifest(txn, table_id) == (
                    every[-1] if every else None
                )


def _assert_versions_are_sources(txn) -> None:
    """A hit from the store carries the version it was read from; a hit
    from the transaction's own buffer carries none."""
    own = txn.buffered_writes()
    for table in TABLES:
        for table_id in TABLE_IDS:
            for hit in txn.newest_first(table, (table_id,)):
                key = (table, (table_id, hit.row["sequence_id"]))
                if key in own:
                    assert hit.version is None
                else:
                    assert hit.version.value == hit.row


isolations = st.sampled_from(list(IsolationLevel))


class TestSeekEqualsScanMax:
    @settings(max_examples=80, deadline=None)
    @given(
        before=st.lists(st.lists(operations, max_size=4), max_size=6),
        after=st.lists(st.lists(operations, max_size=4), max_size=3),
        own=st.lists(operations, max_size=5),
        isolation=isolations,
    )
    def test_committed_history_and_own_writes(self, before, after, own, isolation):
        engine = SqlDbEngine()
        for commit in before:
            txn = engine.begin()
            for operation in commit:
                _apply(txn, operation)
            txn.commit()
        reader = engine.begin(isolation)
        # Commits after the reader began: visible to RCSI reads only.
        for commit in after:
            txn = engine.begin()
            for operation in commit:
                _apply(txn, operation)
            txn.commit()
        _assert_seek_equals_scan_max(reader)
        for operation in own:
            _apply(reader, operation)
        _assert_seek_equals_scan_max(reader)
        _assert_versions_are_sources(reader)

    @settings(max_examples=40, deadline=None)
    @given(
        before=st.lists(st.lists(operations, max_size=4), max_size=5),
        own=st.lists(operations, max_size=4),
        stamped=st.lists(st.sampled_from(TABLE_IDS), min_size=1, max_size=3),
    )
    def test_writes_of_the_pre_install_hook(self, before, own, stamped):
        """The hook runs under the commit lock with the transaction still
        active; rows it puts are own writes to every read it makes."""
        engine = SqlDbEngine()
        for commit in before:
            txn = engine.begin()
            for operation in commit:
                _apply(txn, operation)
            txn.commit()
        writer = engine.begin()
        for operation in own:
            _apply(writer, operation)
        checked = []

        def stamp(sequence_id: int) -> None:
            for table_id in stamped:
                system_tables.insert_manifest(
                    writer, table_id, f"m{sequence_id}", sequence_id, writer.txid,
                    0.0, "p",
                )
            _assert_seek_equals_scan_max(writer)
            checked.append(sequence_id)

        writer.set_pre_install_hook(stamp)
        writer.commit()
        assert checked


class TestSeekSerializable:
    @pytest.mark.parametrize("other_table_id", [1, 2])
    def test_a_concurrent_commit_to_the_table_fails_the_reader(self, other_table_id):
        """The seek reads one key range, but records the whole table: a
        commit to any row of it invalidates a serializable reader."""
        engine = SqlDbEngine()
        setup = engine.begin()
        system_tables.insert_manifest(setup, 1, "m1", 1, 1, 0.0, "p")
        setup.commit()
        reader = engine.begin(IsolationLevel.SERIALIZABLE)
        assert system_tables.latest_manifest(reader, 1)["sequence_id"] == 1
        other = engine.begin()
        system_tables.insert_manifest(other, other_table_id, "m9", 9, 2, 0.0, "p")
        other.commit()
        system_tables.upsert_writeset(reader, 1)
        with pytest.raises(SerializationError):
            reader.commit()

    def test_a_commit_to_another_table_does_not(self):
        engine = SqlDbEngine()
        reader = engine.begin(IsolationLevel.SERIALIZABLE)
        assert system_tables.latest_checkpoint(reader, 1, 10) is None
        other = engine.begin()
        system_tables.insert_manifest(other, 1, "m9", 9, 2, 0.0, "p")
        other.commit()
        system_tables.upsert_writeset(reader, 1)
        assert reader.commit() is not None
