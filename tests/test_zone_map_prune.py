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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fe.read_path import _prune_snapshot
from repro.lst.actions import DataFileInfo, DeletionVectorInfo
from repro.lst.snapshot import TableSnapshot
from repro.lst.zone_maps import ZoneMaps
from repro.pagefile.stats import may_contain

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

#: column -> (bound values, literal values compared against them).
COLUMNS = {
    "i": (ints, st.one_of(ints, float_literals)),
    "f": (floats, st.one_of(float_literals, ints)),
    "b": (bools, st.one_of(bools, st.integers(-1, 2))),
    "s": (strings, strings),
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
        assert ZoneMaps(by_name).matching(prune) == expected

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
        pruned = _prune_snapshot(snapshot, prune)
        kept = [info.name for info in files if per_file_keeps(info, prune)]
        assert list(pruned.files) == kept
        assert set(pruned.dvs) == set(dvs) & set(kept)
        if len(kept) == len(files):
            assert pruned is snapshot
        assert pruned.sequence_id == snapshot.sequence_id


def test_int64_extremes_do_not_round_through_float64():
    """``2**63 - 1 == 2.0**63`` is false in Python and true once both
    sides become float64; the prune must answer as Python does."""
    info = DataFileInfo(
        name="f", path="p/f", num_rows=1, size_bytes=8, distribution=0,
        column_stats=(("i", INT64_MAX, INT64_MAX),),
    )
    maps = ZoneMaps({"f": info})
    assert maps.matching((("i", "==", 2.0**63),)) == []
    assert maps.matching((("i", "<", 2.0**63),)) == ["f"]
    assert maps.matching((("i", "==", INT64_MAX),)) == ["f"]
    assert np.float64(INT64_MAX) == 2.0**63  # the rounding avoided above
