"""Tests for Z-ordering: Morton codes and composite sort keys."""

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, TableScan, Warehouse, and_
from repro.engine.zorder import morton_codes, zorder_permutation
from tests.conftest import small_config


class TestMortonCodes:
    def test_single_column_preserves_order(self):
        values = np.array([30, 10, 20], dtype=np.int64)
        codes = morton_codes([values])
        assert np.argsort(codes).tolist() == np.argsort(values).tolist()

    def test_codes_are_deterministic(self):
        values = [np.arange(100), np.arange(100)[::-1].copy()]
        a = morton_codes(values)
        b = morton_codes(values)
        np.testing.assert_array_equal(a, b)

    def test_too_many_dimensions_rejected(self):
        cols = [np.arange(4)] * 4
        with pytest.raises(ValueError):
            morton_codes(cols)
        with pytest.raises(ValueError):
            morton_codes([])

    def test_locality_on_grid(self):
        """Points close in (x, y) should be close on the Z-curve: sorting a
        grid by Morton code must outperform row-major order for 2-D range
        boxes (the defining property of the curve)."""
        side = 16
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        x, y = xs.ravel().astype(np.int64), ys.ravel().astype(np.int64)
        codes = morton_codes([x, y])
        order = np.argsort(codes)
        xo, yo = x[order], y[order]

        def span_of_box(xv, yv, lo, hi):
            inside = np.flatnonzero(
                (xv >= lo) & (xv < hi) & (yv >= lo) & (yv < hi)
            )
            return inside.max() - inside.min() + 1

        # A 4x4 box: along the Z-curve its 16 points sit in a short span;
        # in row-major order they spread over ~3*side + 4 positions.
        z_span = span_of_box(xo, yo, 4, 8)
        rm_span = span_of_box(x, y, 4, 8)
        assert z_span < rm_span

    def test_string_columns_supported(self):
        values = np.array(["b", "a", "c"], dtype=object)
        codes = morton_codes([values])
        assert np.argsort(codes).tolist() == [1, 0, 2]

    def test_single_row(self):
        codes = morton_codes([np.array([42], dtype=np.int64)])
        assert codes.tolist() == [0]

    def test_permutation_orders_batch(self):
        batch = {
            "x": np.array([3, 1, 2], dtype=np.int64),
            "y": np.array([1, 1, 1], dtype=np.int64),
        }
        perm = zorder_permutation(batch, ["x", "y"])
        assert batch["x"][perm].tolist() == [1, 2, 3]


class TestCompositeSortKeys:
    @pytest.fixture
    def dw(self):
        return Warehouse(config=small_config(), auto_optimize=False)

    def test_create_with_composite_key(self, dw):
        session = dw.session()
        session.create_table(
            "grid",
            Schema.of(("x", "int64"), ("y", "int64"), ("v", "float64")),
            sort_column=["x", "y"],
        )
        n = 1024
        rng = np.random.default_rng(0)
        session.insert(
            "grid",
            {
                "x": rng.integers(0, 32, n).astype(np.int64),
                "y": rng.integers(0, 32, n).astype(np.int64),
                "v": np.zeros(n),
            },
        )
        out = session.query(
            TableScan(
                "grid", ("x", "y"),
                predicate=and_(
                    BinOp("<", Col("x"), Lit(8)), BinOp("<", Col("y"), Lit(8))
                ),
                prune=(("x", "<", 8), ("y", "<", 8)),
            )
        )
        assert (out["x"] < 8).all() and (out["y"] < 8).all()

    def test_zorder_improves_rowgroup_pruning(self):
        """With Z-order, a 2-D box overlaps fewer row-group zone maps."""
        from repro.pagefile.reader import PageFileReader

        config = small_config()
        config.row_group_size = 128  # fine zone-map granularity
        dw = Warehouse(config=config, auto_optimize=False)

        def overlapping_groups(sort_column, table):
            session = dw.session()
            session.create_table(
                table,
                Schema.of(("x", "int64"), ("y", "int64"), ("v", "float64")),
                sort_column=sort_column,
            )
            side = 64
            xs, ys = np.meshgrid(np.arange(side), np.arange(side))
            # Random arrival order: without a sort key, every row group
            # spans most of both dimensions.
            perm = np.random.default_rng(2).permutation(side * side)
            session.insert(
                table,
                {
                    "x": xs.ravel().astype(np.int64)[perm],
                    "y": ys.ravel().astype(np.int64)[perm],
                    "v": np.zeros(side * side),
                },
            )
            snapshot = session.table_snapshot(table)
            total = matching = 0
            for info in snapshot.files.values():
                reader = PageFileReader(dw.store.get(info.path).data)
                scanned, pruned = reader.prune_counts([("x", "<", 8), ("y", "<", 8)])
                total += scanned + pruned
                matching += scanned
            return matching, total

        z_match, z_total = overlapping_groups(["x", "y"], "zord")
        plain_match, plain_total = overlapping_groups(None, "plain")
        assert z_total == plain_total
        # The Z-curve confines an 8x8 box to a small fraction of groups;
        # the row-major layout leaves y unsorted within groups, so many
        # more groups overlap.
        assert z_match < plain_match

    def test_backup_roundtrips_composite_key(self, dw):
        session = dw.session()
        session.create_table(
            "grid", Schema.of(("x", "int64"), ("y", "int64")),
            sort_column=("x", "y"),
        )
        backup = dw.backup()
        dw.restore(backup)
        from repro.fe.catalog import describe_table
        txn = dw.context.sqldb.begin()
        row = describe_table(txn, "grid")
        txn.abort()
        assert row["sort_column"] == ["x", "y"]

    def test_too_many_sort_columns_rejected(self, dw):
        from repro.common.errors import CatalogError
        with pytest.raises(CatalogError, match="at most 3"):
            dw.session().create_table(
                "t", Schema.of(("a", "int64"), ("b", "int64"),
                               ("c", "int64"), ("d", "int64")),
                sort_column=["a", "b", "c", "d"],
            )
