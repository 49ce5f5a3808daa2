"""The vectorised file prune keeps exactly what per-file zone maps keep.

:class:`~repro.lst.zone_maps.ZoneMaps` tests one snapshot's files against
a scan's conjuncts with one array comparison per conjunct.  Its answer
must be, file for file, the conservative per-file rule: keep a file
unless, for some conjunct, the file records bounds for the column and
:func:`~repro.pagefile.stats.may_contain` proves no row can match.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dcp.cells import Placement, distribution_of
from repro.engine.expressions import BinOp, Col, Lit, evaluate
from repro.fe.read_path import _prune_snapshot
from repro.lst.actions import DataFileInfo, DeletionVectorInfo
from repro.lst.snapshot import TableSnapshot
from repro.lst.zone_maps import ZoneMaps
from repro.pagefile.schema import NUMPY_DTYPES, Field
from repro.pagefile.stats import compute_stats, may_contain

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

ints = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
)
floats = st.one_of(
    st.floats(-5, 5),
    st.sampled_from([-math.inf, math.inf, -0.0, 2.0**63, -(2.0**63), 1e-300]),
)
#: Literals may also be NaN, which no bound satisfies.
float_literals = st.one_of(floats, st.just(math.nan))
bools = st.booleans()
strings = st.text(alphabet="abcé", max_size=3)

#: column -> (bound values, literal values compared against them);
#: a string literal on a number column (and the reverse) orders against
#: no bound.
COLUMNS = {
    "i": (ints, st.one_of(ints, float_literals, strings)),
    "f": (floats, st.one_of(float_literals, ints)),
    "b": (bools, st.one_of(bools, st.integers(-1, 2))),
    "s": (strings, st.one_of(strings, ints, floats)),
}
OPS = ("==", "<", "<=", ">", ">=", "!=")


@st.composite
def bounds(draw, values):
    """``(min, max)``, or ``(None, None)`` for an empty or all-NaN chunk."""
    if draw(st.integers(0, 5)) == 0:
        return None, None
    lo, hi = sorted((draw(values), draw(values)))
    return lo, hi


@st.composite
def data_file(draw, index):
    triples = []
    for column in draw(st.permutations(list(COLUMNS))):
        if draw(st.booleans()):
            triples.append((column, *draw(bounds(COLUMNS[column][0]))))
    if triples and draw(st.integers(0, 5)) == 0:
        # A repeated column: the first triple is the file's bounds.
        column = triples[0][0]
        triples.append((column, *draw(bounds(COLUMNS[column][0]))))
    return DataFileInfo(
        name=f"f{index:03d}", path=f"p/f{index:03d}", num_rows=1, size_bytes=8,
        distribution=0, column_stats=tuple(triples),
    )


@st.composite
def files_and_prune(draw):
    files = [draw(data_file(index)) for index in range(draw(st.integers(0, 12)))]
    conjuncts = []
    for __ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from(list(COLUMNS) + ["ghost"]))
        literal_values = COLUMNS[column][1] if column in COLUMNS else ints
        conjuncts.append((column, draw(st.sampled_from(OPS)), draw(literal_values)))
    return files, tuple(conjuncts)


def per_file_keeps(info: DataFileInfo, prune) -> bool:
    for column, op, literal in prune:
        found = info.stats_for(column)
        if found is not None and not may_contain(*found, op, literal):
            return False
    return True


class TestVectorisedPruneEqualsPerFile:
    @settings(max_examples=150, deadline=None)
    @given(files_and_prune())
    def test_same_files_kept(self, case):
        files, prune = case
        by_name = {info.name: info for info in files}
        expected = [info.name for info in files if per_file_keeps(info, prune)]
        assert ZoneMaps(by_name, None).matching(prune) == expected

    @settings(max_examples=100, deadline=None)
    @given(files_and_prune())
    def test_prune_snapshot_keeps_them_with_their_dvs(self, case):
        files, prune = case
        dvs = {
            info.name: DeletionVectorInfo(
                name=f"dv{info.name}", path="p/dv", target_file=info.name,
                cardinality=0, size_bytes=1,
            )
            for info in files[::2]
        }
        snapshot = TableSnapshot(
            sequence_id=3, files={info.name: info for info in files}, dvs=dvs
        )
        pruned = _prune_snapshot(snapshot, prune, ZoneMaps(snapshot.files, None))
        kept = [info.name for info in files if per_file_keeps(info, prune)]
        assert list(pruned.files) == kept
        assert set(pruned.dvs) == set(dvs) & set(kept)
        if len(kept) == len(files):
            assert pruned is snapshot
        assert pruned.sequence_id == snapshot.sequence_id


@pytest.mark.parametrize("op", ["==", "<", "<="])
@pytest.mark.parametrize("literal", ["x", 5, 5.0])
def test_a_literal_no_bound_orders_against_prunes_nothing(op, literal):
    """A string literal against an int64 column's bounds, or a number
    against a string column's: no file or row group is pruned, and
    nothing raises."""
    column, low, high = (
        ("s", "a", "b") if not isinstance(literal, str) else ("i", 1, 2)
    )
    info = DataFileInfo(
        name="f", path="p/f", num_rows=1, size_bytes=8, distribution=0,
        column_stats=((column, low, high),),
    )
    assert ZoneMaps({"f": info}, None).matching(((column, op, literal),)) == ["f"]
    assert may_contain(low, high, op, literal)


# -- the bucket rule -------------------------------------------------------------

BUCKETS = 4
#: column type -> (row values, extra literals beyond the rows' own).
KEY_COLUMNS = {
    "int64": (
        st.one_of(
            st.integers(-5, 5),
            st.integers(INT64_MIN, INT64_MAX),
            st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
        ),
        st.one_of(
            st.sampled_from([5.0, True, False, 1.0, -0.0, 2.0**63, 2**64]),
            st.integers(-6, 6).map(np.int64),
            st.integers(-6, 6).map(np.int32),
            st.integers(0, 6).map(np.uint64),
            st.sampled_from([np.float64(5.0), np.bool_(True)]),
        ),
    ),
    "string": (
        st.one_of(st.just(""), st.text(alphabet="aé漢\U0001f600", max_size=3)),
        st.text(max_size=2).map(np.str_),
    ),
    "float64": (
        st.one_of(
            st.floats(-3, 3, allow_nan=False),
            st.sampled_from([-0.0, 0.0, math.nan, math.inf]),
        ),
        st.sampled_from([-0.0, 0.0, math.nan, 1, np.float32(0.5)]),
    ),
}


def engine_equal(values, literal):
    """Rows of ``values`` equal to ``literal`` under the engine's ``==``
    (None when the engine refuses the comparison)."""
    try:
        return evaluate(BinOp("==", Col("k"), Lit(literal)), {"k": values})
    except (OverflowError, TypeError):
        return None


@st.composite
def placed_files(draw):
    """Data files as the writers lay them out: hash-placed ones hold one
    bucket's rows and carry its label, mixed ones hold anything."""
    kind = draw(st.sampled_from(sorted(KEY_COLUMNS)))
    values, extra_literals = KEY_COLUMNS[kind]
    placement = Placement("k", kind, BUCKETS)
    files, contents = {}, {}
    for index in range(draw(st.integers(1, 8))):
        rows = np.array(
            draw(st.lists(values, min_size=1, max_size=6)), dtype=NUMPY_DTYPES[kind]
        )
        mixed = draw(st.booleans())
        if mixed:
            label = draw(st.integers(0, BUCKETS - 1))
        else:
            label = int(distribution_of(rows, BUCKETS)[0])
            rows = rows[distribution_of(rows, BUCKETS) == label]
        summary = compute_stats(Field("k", kind), rows)
        stats = (
            (("k", summary.minimum, summary.maximum),)
            if summary.minimum is not None
            else ()
        )
        name = f"f{index:03d}"
        files[name] = DataFileInfo(
            name=name, path=f"p/{name}", num_rows=len(rows), size_bytes=8,
            distribution=label, column_stats=stats, mixed=mixed,
        )
        contents[name] = rows
    stored = [v for rows in contents.values() for v in rows.tolist()]
    literal = draw(st.one_of(st.sampled_from(stored), extra_literals))
    return placement, files, contents, literal


class TestBucketRuleNeverHidesAMatch:
    """Whatever the bucket rule drops holds no row equal to the literal
    under the engine's own ``==``: every file the zone maps alone keep
    and that holds such a row is still kept under the table's placement."""

    @settings(max_examples=300, deadline=None)
    @given(placed_files())
    def test_every_file_with_an_equal_row_is_kept(self, case):
        placement, files, contents, literal = case
        prune = (("k", "==", literal),)
        by_zone_maps = set(ZoneMaps(files, None).matching(prune))
        kept = set(ZoneMaps(files, placement).matching(prune))
        assert kept <= by_zone_maps
        for name, rows in contents.items():
            equal = engine_equal(rows, literal)
            if name in by_zone_maps and equal is not None and equal.any():
                assert name in kept, (name, rows, literal)

    def test_int_literal_keeps_only_its_bucket_and_mixed_files(self):
        placement = Placement("k", "int64", BUCKETS)
        files = {
            f"f{b}": DataFileInfo(
                name=f"f{b}", path=f"p/f{b}", num_rows=1, size_bytes=8,
                distribution=b,
            )
            for b in range(BUCKETS)
        }
        files["m"] = DataFileInfo(
            name="m", path="p/m", num_rows=1, size_bytes=8, distribution=0,
            mixed=True,
        )
        maps = ZoneMaps(files, placement)
        for key in (0, 7, -3, INT64_MIN, INT64_MAX, np.int64(9)):
            bucket = int(distribution_of(np.array([key], dtype=np.int64), BUCKETS)[0])
            assert maps.matching((("k", "==", key),)) == [f"f{bucket}", "m"]
        for literal in (5.0, True, np.bool_(False), 2**64):
            assert maps.matching((("k", "==", literal),)) == list(files)
        # Other operators, other columns, and no placement keep everything.
        assert maps.matching((("k", ">=", 3),)) == list(files)
        assert maps.matching((("v", "==", 3),)) == list(files)
        assert ZoneMaps(files, None).matching((("k", "==", 3),)) == list(files)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(INT64_MIN, INT64_MAX),
            st.sampled_from([INT64_MIN, -1, 0, INT64_MAX]),
            st.text(max_size=4),
        ),
        st.integers(1, 16),
    )
    def test_a_literal_hashes_as_its_stored_row(self, key, buckets):
        kind = "string" if isinstance(key, str) else "int64"
        placement = Placement("k", kind, buckets)
        stored = np.array([key], dtype=NUMPY_DTYPES[kind])
        assert placement.bucket_of(key) == int(distribution_of(stored, buckets)[0])
        assert placement.bucket_of_rows(stored) == placement.bucket_of(key)

    def test_a_string_no_row_can_hold_decides_nothing(self):
        # A lone surrogate has no UTF-8 form, so no stored key hashes like it.
        assert Placement("k", "string", BUCKETS).bucket_of("\ud800") is None
        assert Placement("k", "string", BUCKETS).bucket_of("") is not None

    def test_a_float_column_is_never_pruned_by_bucket(self):
        placement = Placement("k", "float64", BUCKETS)
        assert placement.bucket_of(0.0) is None
        assert placement.bucket_of(-0.0) is None
        assert placement.bucket_of(math.nan) is None
        assert placement.bucket_of(1) is None


def test_zone_maps_agree_with_the_engine_on_int64_float_equality():
    """The engine compares an int64 column with a float literal in
    float64 (``2**63 - 2 == 2.0**63`` holds there, not in Python), so
    the zone maps of a one-row file keep it exactly when the engine
    matches its row."""
    for stored in (INT64_MAX - 1, INT64_MAX, INT64_MIN, 5):
        rows = np.array([stored], dtype=np.int64)
        info = DataFileInfo(
            name="f", path="p/f", num_rows=1, size_bytes=8, distribution=0,
            column_stats=(("k", stored, stored),),
        )
        maps = ZoneMaps({"f": info}, None)
        for literal in (2.0**63, -(2.0**63), 5.0, 5.5):
            for op in ("==", "<", "<=", ">", ">="):
                expr = BinOp(op, Col("k"), Lit(literal))
                matches = bool(evaluate(expr, {"k": rows}).any())
                kept = maps.matching((("k", op, literal),))
                assert kept == (["f"] if matches else []), (stored, op, literal)
                assert may_contain(stored, stored, op, literal) == matches
