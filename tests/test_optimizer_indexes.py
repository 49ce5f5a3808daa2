"""Secondary indexes: build format, catalog rows, pruning, staleness safety."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.optimizer import manager as optimizer_manager
from repro.optimizer.indexes import (
    FILE_COLUMN,
    SortedRunIndex,
    build_index_bytes,
    index_schema,
)
from repro.pagefile.schema import Field
from repro.sqldb import system_tables as catalog

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def rows(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


class TestSortedRunFormat:
    def test_round_trip_sorted_and_deduplicated(self):
        field = Field(name="k", type="int64")
        pairs = [(3, "b"), (1, "a"), (3, "b"), (2, "a"), (3, "a")]
        data, entries = build_index_bytes(field, pairs, row_group_size=2)
        assert entries == 4  # the duplicate (3, "b") collapses
        index = SortedRunIndex.from_bytes("k", data, ["a", "b"])
        assert index.keys == [1, 2, 3, 3]
        assert index.files == ["a", "a", "a", "b"]

    def test_schema_pairs_key_with_file_column(self):
        schema = index_schema(Field(name="k", type="string"))
        assert [f.name for f in schema.fields] == ["k", FILE_COLUMN]

    def test_files_for_equality(self):
        field = Field(name="k", type="int64")
        data, _ = build_index_bytes(
            field, [(1, "a"), (1, "b"), (2, "b")], row_group_size=8
        )
        index = SortedRunIndex.from_bytes("k", data, ["a", "b"])
        assert index.files_for_equality(1) == {"a", "b"}
        assert index.files_for_equality(2) == {"b"}
        assert index.files_for_equality(9) == set()

    def test_prunable_files_respects_coverage(self):
        field = Field(name="k", type="int64")
        data, _ = build_index_bytes(field, [(1, "a")], row_group_size=8)
        index = SortedRunIndex.from_bytes("k", data, ["a"])
        # "new" was committed after the build: never prunable, even
        # though the index has no entry for it.
        assert index.prunable_files(2, {"a", "new"}) == {"a"}
        assert index.prunable_files(1, {"a", "new"}) == set()


class TestCreateIndex:
    def test_create_index_writes_blob_and_catalog_row(self, warehouse, session):
        table_id = session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 100))
        payload = session.create_index("t", "idx_t_id", "id")
        assert payload["column"] == "id"
        assert payload["entries"] > 0
        assert "/_indexes/" in payload["path"]
        blob = warehouse.context.store.get(payload["path"])
        assert len(blob.data) == payload["size_bytes"]
        txn = warehouse.context.sqldb.begin()
        try:
            listed = catalog.indexes_for_table(txn, table_id)
        finally:
            txn.abort()
        assert [r["index_name"] for r in listed] == ["idx_t_id"]
        assert sorted(listed[0]["covered_files"]) == sorted(
            session.table_snapshot("t").files
        )

    def test_unknown_column_rejected(self, session):
        from repro.common.errors import CatalogError

        session.create_table("t", SCHEMA, distribution_column="id")
        with pytest.raises(CatalogError):
            session.create_index("t", "idx", "nope")

    def test_rebuild_replaces_catalog_row(self, warehouse, session):
        table_id = session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 50))
        first = session.create_index("t", "idx", "id")
        session.insert("t", rows(50, 50))
        second = session.create_index("t", "idx", "id")
        assert second["sequence_id"] > first["sequence_id"]
        assert second["path"] != first["path"]
        txn = warehouse.context.sqldb.begin()
        try:
            listed = catalog.indexes_for_table(txn, table_id)
        finally:
            txn.abort()
        assert len(listed) == 1
        assert listed[0]["path"] == second["path"]

    def test_sql_create_index_statement(self, session):
        session.sql("CREATE TABLE t (id bigint, v double)")
        session.sql("INSERT INTO t (id, v) VALUES (1, 1.0), (2, 2.0)")
        assert session.sql("CREATE INDEX idx_t_id ON t (id)") > 0
        dmv = session.sql(
            "SELECT index_name, column_name, entries FROM sys.dm_index_stats"
        )
        assert list(dmv["index_name"]) == ["idx_t_id"]
        assert str(dmv["column_name"][0]) == "id"


class TestIndexPruning:
    @pytest.fixture
    def indexed(self, warehouse, session):
        session.create_table("t", SCHEMA, distribution_column="id")
        # Several inserts so the snapshot holds many files; with a
        # hash-distributed key, zone maps cannot prune equality probes.
        for start in range(0, 400, 100):
            session.insert("t", rows(start, 100))
        session.create_index("t", "idx", "id")
        return warehouse, session

    def test_equality_probe_prunes_files(self, indexed):
        warehouse, session = indexed
        assert len(session.table_snapshot("t").files) > 1
        out = session.sql("SELECT v FROM t WHERE id = 123")
        assert list(out["v"]) == [123.0]
        text = session.sql("EXPLAIN ANALYZE SELECT v FROM t WHERE id = 123")
        assert "files_pruned=" in text
        usage = warehouse.context.optimizer.index_usage(
            self_table_id(warehouse), "idx"
        )
        assert usage["lookups"] >= 1
        assert usage["files_pruned"] >= 1

    def test_pruning_disabled_by_config(self, config, monkeypatch):
        monkeypatch.setattr(optimizer_manager, "INDEX_PRUNING", False)
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(0, 100))
        session.create_index("t", "idx", "id")
        out = session.sql("SELECT v FROM t WHERE id = 7")
        assert list(out["v"]) == [7.0]
        usage = dw.context.optimizer.index_usage(self_table_id(dw), "idx")
        assert usage["lookups"] == 0

    def test_stale_index_never_hides_rows(self, indexed):
        _, session = indexed
        # Rows committed after the build are uncovered: always scanned.
        session.insert("t", rows(400, 10))
        out = session.sql("SELECT v FROM t WHERE id = 405")
        assert list(out["v"]) == [405.0]
        # And covered keys still answer correctly alongside them.
        out = session.sql("SELECT v FROM t WHERE id = 42")
        assert list(out["v"]) == [42.0]

    def test_pruned_scan_matches_full_scan(self, indexed):
        _, session = indexed
        for key in (0, 123, 250, 399, 9999):
            pruned = session.sql(f"SELECT id, v FROM t WHERE id = {key}")
            expected = [float(key)] if 0 <= key < 400 else []
            assert list(pruned["v"]) == expected

    def test_deleted_rows_stay_deleted_under_pruning(self, indexed):
        _, session = indexed
        session.sql("DELETE FROM t WHERE id = 123")
        out = session.sql("SELECT v FROM t WHERE id = 123")
        assert list(out["v"]) == []


def self_table_id(dw, name="t"):
    txn = dw.context.sqldb.begin()
    try:
        return catalog.find_table_by_name(txn, name)["table_id"]
    finally:
        txn.abort()
