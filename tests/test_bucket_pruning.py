"""A key lives only in its own bucket.

A row whose distribution-column value is ``k`` is only in a file labelled
``distribution_of(k)`` under the bucket count recorded on the table, or
in a *mixed* file.  ``ZoneMaps.keep`` trusts that for ``==`` conjuncts on
the distribution column, in scans and in UPDATE/DELETE alike, so every
writer that could break it must mark its output: bulk load, compaction of
mixed files, an UPDATE that moves a row to another bucket, and a table
restored into a warehouse with another ``distributions``.  Each test
below writes one of those and then looks every key up.
"""

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.dcp.cells import distribution_of
from repro.fe import write_path
from repro.lst.zone_maps import ZoneMaps
from repro.sqldb import system_tables as catalog
from tests.conftest import small_config

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def new_warehouse(distributions=4):
    config = small_config()
    config.distributions = distributions
    return Warehouse(config=config, auto_optimize=False)


def rows(ids):
    ids = np.asarray(ids, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


def bucket(key, buckets=4):
    return int(distribution_of(np.array([key], dtype=np.int64), buckets)[0])


def lookup(session, key):
    """``SELECT ... WHERE id = key`` through SQL, as sorted ids."""
    return sorted(session.sql(f"SELECT id, v FROM t WHERE id = {key}")["id"].tolist())


def assert_every_key_found(session, keys):
    for key in keys:
        assert lookup(session, key) == [key], key


def table_row(dw, name="t"):
    txn = dw.context.sqldb.begin()
    try:
        return catalog.find_table_by_name(txn, name)
    finally:
        txn.abort()


@pytest.fixture
def dw():
    return new_warehouse()


@pytest.fixture
def session(dw):
    session = dw.session()
    session.create_table("t", SCHEMA, distribution_column="id")
    return session


class TestPointLookups:
    def test_explain_analyze_scans_one_cell(self, session):
        # Evens then odds: every file's zone map spans the probed key, so
        # what is pruned is pruned by bucket.
        session.insert("t", rows(range(0, 200, 2)))
        session.insert("t", rows(range(1, 200, 2)))
        files = session.table_snapshot("t").files
        assert len(ZoneMaps(files, None).matching((("id", "==", 77),))) == len(files)
        others = sum(info.distribution != bucket(77) for info in files.values())
        assert others
        text = session.sql("EXPLAIN ANALYZE SELECT v FROM t WHERE id = 77")
        assert "cells=1" in text, text
        assert f"files_pruned={others} " in text, text
        wide = session.sql("EXPLAIN ANALYZE SELECT v FROM t WHERE id >= 77")
        assert "cells=4" in wide, wide

    def test_point_update_and_delete_open_one_bucket(self, session, monkeypatch):
        session.insert("t", rows(range(40)))
        session.insert("t", rows(range(40, 80)))
        opened = []
        real_open = write_path._open_data_file

        def spy(context, info):
            opened.append(info)
            return real_open(context, info)

        monkeypatch.setattr(write_path, "_open_data_file", spy)
        session.sql("UPDATE t SET v = -1.0 WHERE id = 13")
        session.sql("DELETE FROM t WHERE id = 14")
        monkeypatch.undo()
        assert opened
        assert {info.distribution for info in opened} <= {bucket(13), bucket(14)}
        assert session.sql("SELECT v FROM t WHERE id = 13")["v"].tolist() == [-1.0]
        assert lookup(session, 14) == []
        assert_every_key_found(session, [k for k in range(80) if k != 14])

    def test_int64_literals_of_other_types_still_match(self, session):
        session.insert("t", rows([5, -5, 2**62]))
        assert session.sql("SELECT id FROM t WHERE id = 5.0")["id"].tolist() == [5]
        assert lookup(session, -5) == [-5]
        out = session.query(TableScan(
            "t", ("id",), predicate=BinOp("==", Col("id"), Lit(np.int64(2**62))),
            prune=(("id", "==", np.int64(2**62)),),
        ))
        assert out["id"].tolist() == [2**62]
        out = session.query(TableScan(
            "t", ("id",), predicate=BinOp("==", Col("id"), Lit(float("nan"))),
            prune=(("id", "==", float("nan")),),
        ))
        assert out["id"].tolist() == []

    def test_a_float_key_is_never_pruned_by_bucket(self, dw):
        session = dw.session()
        session.create_table("f", SCHEMA, distribution_column="v")
        session.insert("f", {"id": np.arange(3), "v": np.array([-0.0, 1.5, np.nan])})
        # -0.0 == 0.0, but the two hash to different buckets.
        assert distribution_of(np.array([0.0, -0.0]), 4).tolist() == [2, 3]
        out = session.sql("SELECT id FROM f WHERE v = 0.0")
        assert out["id"].tolist() == [0]


class TestMixedFiles:
    def test_bulk_load_files_are_mixed(self, dw, session):
        session.bulk_load("t", [rows(range(0, 30)), rows(range(30, 60))])
        files = session.table_snapshot("t").files.values()
        assert files and all(info.mixed for info in files)
        assert_every_key_found(session, range(60))
        session.insert("t", rows(range(60, 70)))
        assert not any(
            info.mixed for info in session.table_snapshot("t").files.values()
            if info.stats_for("id")[0] >= 60
        )
        assert_every_key_found(session, range(70))

    def test_compacting_mixed_files_keeps_them_mixed(self, dw, session):
        # Files of three rows are below min_healthy_rows_per_file.
        session.bulk_load("t", [rows(range(i, i + 3)) for i in range(0, 24, 3)])
        session.insert("t", rows(range(100, 103)))
        result = dw.sto.run_compaction(table_row(dw)["table_id"])
        assert result.committed and result.files_created
        files = session.table_snapshot("t").files.values()
        assert any(info.mixed for info in files)
        assert_every_key_found(session, list(range(24)) + [100, 101, 102])

    def test_compacting_hash_placed_files_keeps_them_placed(self, dw, session):
        for key in range(12):
            session.insert("t", rows([key]))
        result = dw.sto.run_compaction(table_row(dw)["table_id"])
        assert result.committed and result.files_created
        for info in session.table_snapshot("t").files.values():
            assert not info.mixed
        assert_every_key_found(session, range(12))

    def test_update_moving_a_key_to_another_bucket(self, session):
        session.insert("t", rows(range(40)))
        moved = next(k for k in range(1000, 2000) if bucket(k) != bucket(3))
        session.sql(f"UPDATE t SET id = {moved} WHERE id = 3")
        assert lookup(session, 3) == []
        assert lookup(session, moved) == [moved]
        # Rows of one cell moved into two buckets make a mixed file.
        session.sql(
            "UPDATE t SET id = CASE WHEN id < 10 THEN id + 5000 "
            "ELSE id + 5001 END WHERE id < 20"
        )
        assert any(info.mixed for info in session.table_snapshot("t").files.values())
        assert_every_key_found(
            session,
            [k + 5000 + (k >= 10) for k in range(20) if k != 3] + list(range(20, 40)),
        )

    def test_update_keeping_the_key_stays_placed(self, session):
        session.insert("t", rows(range(40)))
        before = session.table_snapshot("t").files
        session.sql("UPDATE t SET v = 0.5 WHERE id < 20")
        added = [
            info for name, info in session.table_snapshot("t").files.items()
            if name not in before
        ]
        assert added and not any(info.mixed for info in added)


class TestKeysHashAsStored:
    """A key is hashed after the cast to the column's type that the page
    file writer applies, so a float ``6.0`` stored as the int64 ``6``
    lands in ``6``'s bucket, where a lookup of ``6`` looks."""

    def test_update_assigning_a_float_to_the_key(self, session):
        session.insert("t", rows(range(40)))
        # Hashed as a float, 6.0 would pick another bucket than 6.
        assert distribution_of(np.array([6.0]), 4)[0] != bucket(6)
        session.sql("UPDATE t SET id = 6.0 WHERE id = 3")
        assert lookup(session, 3) == []
        assert lookup(session, 6) == [6, 6]
        session.sql("DELETE FROM t WHERE id = 6")
        assert lookup(session, 6) == []
        assert_every_key_found(session, [k for k in range(40) if k not in (3, 6)])

    def test_insert_of_float_keys(self, session):
        keys = np.arange(20, dtype=np.float64)
        session.insert("t", {"id": keys, "v": keys})
        assert not any(info.mixed for info in session.table_snapshot("t").files.values())
        assert_every_key_found(session, range(20))


class TestRecordedBucketCount:
    def test_restore_into_a_warehouse_with_fewer_distributions(self, dw):
        source = new_warehouse(distributions=8)
        session = source.session()
        session.create_table("t", SCHEMA, distribution_column="id")
        session.insert("t", rows(range(64)))
        backup = source.backup()
        for blob in source.store.list(""):
            dw.store.put(blob.path, blob.data, metadata=dict(blob.metadata))
        dw.restore(backup)
        assert table_row(dw)["distributions"] == 8
        restored = dw.session()
        labels = {info.distribution for info in restored.table_snapshot("t").files.values()}
        assert max(labels) >= 4  # labels from 8 buckets, cells from 4
        assert_every_key_found(restored, range(64))
        # New rows hash with the table's count, not the warehouse's.
        restored.insert("t", rows(range(64, 96)))
        restored.sql("UPDATE t SET v = 7.0 WHERE id = 70")
        restored.sql("DELETE FROM t WHERE id = 5")
        assert lookup(restored, 5) == []
        assert restored.sql("SELECT v FROM t WHERE id = 70")["v"].tolist() == [7.0]
        assert_every_key_found(restored, [k for k in range(96) if k != 5])

    def test_clone_keeps_the_source_count(self, dw, session):
        session.insert("t", rows(range(16)))
        session.clone_table("t", "c")
        assert table_row(dw, "c")["distributions"] == table_row(dw)["distributions"]
        out = session.sql("SELECT id FROM c WHERE id = 9")
        assert out["id"].tolist() == [9]
