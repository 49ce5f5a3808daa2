"""Tests for file-level zone maps and the sort column (p(r), Section 2.3)."""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.common.errors import CatalogError
from repro.lst.actions import DataFileInfo
from repro.lst.zone_maps import ZoneMaps
from tests.conftest import small_config


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64),
            "v": np.arange(start, start + n, dtype=np.float64)}


def may_match(info, prune):
    """Whether the zone maps keep ``info`` for the pruning conjuncts."""
    return bool(ZoneMaps({info.name: info}, None).keep(prune)[0])


@pytest.fixture
def dw():
    return Warehouse(config=small_config(), auto_optimize=False)


class TestFileStats:
    def test_stats_recorded_in_manifest(self, dw):
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        session.insert("t", ids(100))
        snapshot = session.table_snapshot("t")
        for info in snapshot.files.values():
            bounds = info.stats_for("id")
            assert bounds is not None
            lo, hi = bounds
            assert 0 <= lo <= hi <= 99

    def test_stats_survive_serialization(self):
        info = DataFileInfo(
            name="f", path="p/f", num_rows=10, size_bytes=80, distribution=0,
            column_stats=(("id", 0, 9), ("name", "a", "z")),
        )
        parsed = DataFileInfo.from_dict(info.to_dict())
        assert parsed.stats_for("id") == (0, 9)
        assert parsed.stats_for("name") == ("a", "z")
        assert parsed.stats_for("ghost") is None

    def test_may_match_logic(self):
        info = DataFileInfo(
            name="f", path="p/f", num_rows=10, size_bytes=80, distribution=0,
            column_stats=(("id", 10, 20),),
        )
        assert may_match(info, (("id", ">=", 15),))
        assert not may_match(info, (("id", ">", 20),))
        assert not may_match(info, (("id", "<", 10),))
        assert may_match(info, (("id", "==", 10),))
        assert may_match(info, (("other", "==", 1),))  # unknown col: keep


class TestFilePruning:
    def make_table(self, dw, sort_column=None):
        session = dw.session()
        session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")),
            sort_column=sort_column,
        )
        # Round-robin distribution with pre-sorted ranges: inserting in
        # slices gives each file a tight id range.
        for start in range(0, 400, 100):
            session.insert("t", ids(100, start=start))
        return session

    def test_pruned_scan_correct(self, dw):
        session = self.make_table(dw)
        out = session.query(
            TableScan("t", ("id",), predicate=BinOp("<", Col("id"), Lit(50)),
                      prune=(("id", "<", 50),))
        )
        assert sorted(out["id"].tolist()) == list(range(50))

    def test_pruning_reduces_bytes_read(self, dw):
        session = self.make_table(dw)
        plan_pruned = TableScan(
            "t", ("id",), predicate=BinOp("<", Col("id"), Lit(10)),
            prune=(("id", "<", 10),),
        )
        plan_full = TableScan(
            "t", ("id",), predicate=BinOp("<", Col("id"), Lit(10)),
        )
        before = dw.store.meter.snapshot()
        session.query(plan_full)
        full_read = dw.store.meter.delta(before).bytes_read
        before = dw.store.meter.snapshot()
        session.query(plan_pruned)
        pruned_read = dw.store.meter.delta(before).bytes_read
        assert pruned_read < full_read

    def test_prune_to_nothing(self, dw):
        session = self.make_table(dw)
        out = session.query(
            TableScan("t", ("id",), predicate=BinOp(">", Col("id"), Lit(10_000)),
                      prune=(("id", ">", 10_000),))
        )
        assert len(out["id"]) == 0

    def test_delete_uses_file_pruning(self, dw):
        session = self.make_table(dw)
        before = dw.store.meter.snapshot()
        deleted = session.delete(
            "t", BinOp("==", Col("id"), Lit(5)), prune=[("id", "==", 5)]
        )
        assert deleted == 1
        # Only the slice containing id 5 was read: 4 data files (one per
        # distribution of that insert) + 4 manifest fetches — not all 16
        # data files.
        delta = dw.store.meter.delta(before)
        assert delta.requests.get("get", 0) <= 8


class TestNanNeverPrunesLiveRows:
    """Regression: ``compute_stats`` recorded NaN as the min/max of any
    chunk holding a NaN, every zone-map comparison was then false, and both
    the manifest-level and the row-group check dropped the file."""

    def load(self, dw):
        from repro.sql import SqlSession

        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (k bigint, x double)")
        x = np.arange(200, dtype=np.float64)
        x[::10] = np.nan
        sql.session.insert("t", {"k": np.arange(200, dtype=np.int64), "x": x})
        return sql

    @pytest.mark.parametrize("where", ["x < 1000.0", "x >= 0.0"])
    def test_sql_count_sees_every_non_nan_row(self, dw, where):
        sql = self.load(dw)
        out = sql.execute(f"SELECT COUNT(*) AS n FROM t WHERE {where}")
        assert out["n"].tolist() == [180]

    def test_manifest_zone_maps_ignore_nan(self, dw):
        sql = self.load(dw)
        sql.session.insert(
            "t", {"k": np.arange(4, dtype=np.int64), "x": np.full(4, np.nan)}
        )
        for info in sql.session.table_snapshot("t").files.values():
            bounds = info.stats_for("x")
            if bounds is None:  # an all-NaN file records no bounds: never pruned
                assert may_match(info, (("x", "<", 0.0),))
            else:
                assert 0.0 <= bounds[0] <= bounds[1] <= 199.0


class TestSortColumn:
    def test_sort_column_orders_rows_in_file(self, dw):
        session = dw.session()
        session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")), sort_column="id"
        )
        shuffled = ids(100)
        rng = np.random.default_rng(0)
        perm = rng.permutation(100)
        session.insert("t", {k: v[perm] for k, v in shuffled.items()})
        snapshot = session.table_snapshot("t")
        from repro.pagefile.reader import PageFileReader
        for info in snapshot.files.values():
            data = PageFileReader(dw.store.get(info.path).data).read(["id"])
            assert (np.diff(data["id"]) >= 0).all()

    def test_unknown_sort_column_rejected(self, dw):
        session = dw.session()
        with pytest.raises(CatalogError, match="sort column"):
            session.create_table(
                "t", Schema.of(("id", "int64"), ("v", "float64")),
                sort_column="ghost",
            )

    def test_clone_inherits_sort_column(self, dw):
        session = dw.session()
        session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")), sort_column="id"
        )
        session.insert("t", ids(10))
        session.clone_table("t", "t2")
        from repro.fe.catalog import describe_table
        txn = dw.context.sqldb.begin()
        try:
            assert describe_table(txn, "t2").get("sort_column") == "id"
        finally:
            txn.abort()

    def test_sorted_vs_unsorted_pruning(self, dw):
        """Sorting by the filter key tightens zone maps: fewer bytes read."""
        rng = np.random.default_rng(1)
        perm = rng.permutation(1000)
        batch = {k: v[perm] for k, v in ids(1000).items()}

        session = dw.session()
        session.create_table(
            "sorted", Schema.of(("id", "int64"), ("v", "float64")),
            sort_column="id",
        )
        session.create_table(
            "unsorted", Schema.of(("id", "int64"), ("v", "float64")),
        )
        # Several small inserts so each table has many files.
        for start in range(0, 1000, 250):
            part = {k: v[start:start + 250] for k, v in batch.items()}
            session.insert("sorted", part)
            session.insert("unsorted", part)

        plan = lambda t: Aggregate(
            TableScan(t, ("id",), predicate=BinOp("<", Col("id"), Lit(20)),
                      prune=(("id", "<", 20),)),
            (), {"n": ("count", None)},
        )
        assert session.query(plan("sorted"))["n"][0] == 20
        assert session.query(plan("unsorted"))["n"][0] == 20
