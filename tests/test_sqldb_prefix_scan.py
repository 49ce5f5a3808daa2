"""Key-prefix catalog scans: ``SqlDbTransaction.scan(table, prefix=...)``.

A prefix scan bisects the table's sorted keys to one ``(table_id, ...)``
range instead of filtering every row.  Its rows must be exactly the rows
a full scan filtered on the key prefix returns — committed history,
deletes and the transaction's own writes included — and it must still
register the whole table for serializable validation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.sqldb import system_tables
from repro.sqldb.engine import SqlDbEngine
from repro.sqldb.transaction import IsolationLevel

TABLE = system_tables.MANIFESTS
TABLE_IDS = (1, 2, 3)


def _row(table_id: int, sequence_id: int, tag: int) -> dict:
    return {"table_id": table_id, "sequence_id": sequence_id, "tag": tag}


#: One operation: ("put" | "delete", table_id, sequence_id, tag).
operations = st.tuples(
    st.sampled_from(("put", "put", "delete")),
    st.sampled_from(TABLE_IDS),
    st.integers(1, 6),
    st.integers(0, 99),
)


def _apply(txn, operation) -> None:
    kind, table_id, sequence_id, tag = operation
    if kind == "put":
        txn.put(TABLE, (table_id, sequence_id), _row(table_id, sequence_id, tag))
    else:
        txn.delete(TABLE, (table_id, sequence_id))


def _assert_prefix_equals_filter(txn) -> None:
    for table_id in TABLE_IDS + (0, 9):
        expected = [
            row for row in txn.scan(TABLE) if row["table_id"] == table_id
        ]
        assert list(txn.scan(TABLE, prefix=(table_id,))) == expected
        exact = [row for row in expected if row["sequence_id"] == 3]
        assert list(txn.scan(TABLE, prefix=(table_id, 3))) == exact


class TestPrefixScan:
    @settings(max_examples=120, deadline=None)
    @given(
        commits=st.lists(st.lists(operations, max_size=4), max_size=6),
        own=st.lists(operations, max_size=5),
        reader_after=st.integers(0, 6),
    )
    def test_rows_equal_the_filtered_full_scan(self, commits, own, reader_after):
        engine = SqlDbEngine()
        reader = None
        for index, batch in enumerate(commits):
            if index == reader_after:
                reader = engine.begin()
            txn = engine.begin()
            for operation in batch:
                _apply(txn, operation)
            txn.commit()
        # A reader whose snapshot predates some of the commits, and a
        # fresh one holding uncommitted writes of its own.
        if reader is not None:
            _assert_prefix_equals_filter(reader)
            reader.abort()
        writer = engine.begin()
        for operation in own:
            _apply(writer, operation)
        _assert_prefix_equals_filter(writer)
        writer.abort()

    def test_system_table_readers_see_only_their_table(self):
        """The per-table catalog readers over interleaved commits of three
        tables, against the same rows picked out of a full scan."""
        engine = SqlDbEngine()
        for sequence_id in (1, 2, 3):
            txn = engine.begin()
            for table_id in TABLE_IDS:
                system_tables.insert_manifest(
                    txn, table_id, f"m{sequence_id}", sequence_id, 1, 0.0, "p"
                )
                system_tables.insert_checkpoint(
                    txn, table_id, sequence_id, f"c{sequence_id}", 0.0
                )
                system_tables.put_table_stats(txn, table_id, sequence_id, {})
                system_tables.put_index(
                    txn, table_id, f"idx{sequence_id}", {"column": "c"}
                )
            txn.commit()
        txn = engine.begin()
        system_tables.delete_table_stats(txn, 2, 3)
        system_tables.drop_index(txn, 2, "idx1")
        txn.commit()
        reader = engine.begin()
        system_tables.insert_manifest(reader, 2, "m4", 4, 1, 0.0, "p")

        def full(table, table_id):
            return [r for r in reader.scan(table) if r["table_id"] == table_id]

        for table_id in TABLE_IDS:
            manifests = system_tables.manifests_for_table(reader, table_id, 1, 3)
            assert manifests == [
                r for r in full(system_tables.MANIFESTS, table_id)
                if 1 < r["sequence_id"] <= 3
            ]
            assert system_tables.checkpoints_for_table(reader, table_id) == full(
                system_tables.CHECKPOINTS, table_id
            )
            assert system_tables.stats_for_table(reader, table_id) == full(
                system_tables.TABLE_STATS, table_id
            )
            assert system_tables.latest_table_stats(reader, table_id, 9) == full(
                system_tables.TABLE_STATS, table_id
            )[-1]
            assert system_tables.indexes_for_table(reader, table_id) == full(
                system_tables.INDEXES, table_id
            )
        assert len(system_tables.manifests_for_table(reader, 2)) == 4
        assert system_tables.latest_table_stats(reader, 2, 9)["sequence_id"] == 2
        assert [r["index_name"] for r in system_tables.indexes_for_table(reader, 2)] == [
            "idx2", "idx3"
        ]

    def test_prefix_scan_still_tracks_the_whole_table(self):
        """Serializable validation is table-scoped: a commit to another
        table id still invalidates a reader that prefix-scanned."""
        engine = SqlDbEngine()
        setup = engine.begin()
        setup.put(TABLE, (1, 1), _row(1, 1, 0))
        setup.commit()
        reader = engine.begin(isolation=IsolationLevel.SERIALIZABLE)
        assert len(list(reader.scan(TABLE, prefix=(1,)))) == 1
        other = engine.begin()
        other.put(TABLE, (2, 1), _row(2, 1, 0))
        other.commit()
        reader.put(TABLE, (1, 2), _row(1, 2, 0))
        with pytest.raises(SerializationError):
            reader.commit()
