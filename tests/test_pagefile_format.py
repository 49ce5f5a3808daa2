"""Tests for the columnar file format: schema, roundtrips, pruning."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FileFormatError, SchemaMismatchError
from repro.pagefile import PageFileReader, Schema, encoding, file_format, write_page_file
from repro.pagefile.file_format import MAGIC, read_footer
from repro.pagefile.schema import Field
from repro.pagefile.stats import ColumnStats, compute_stats


def make_columns(n=100):
    return {
        "id": np.arange(n, dtype=np.int64),
        "name": np.array([f"row-{i:04d}" for i in range(n)], dtype=object),
        "score": np.linspace(0.0, 1.0, n),
        "flag": np.arange(n) % 2 == 0,
    }


SCHEMA = Schema.of(
    ("id", "int64"), ("name", "string"), ("score", "float64"), ("flag", "bool")
)


class TestSchema:
    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaMismatchError):
            Field("x", "decimal")

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaMismatchError):
            Schema.of(("a", "int64"), ("a", "string"))

    def test_field_lookup(self):
        assert SCHEMA.field("id").type == "int64"
        with pytest.raises(SchemaMismatchError):
            SCHEMA.field("missing")

    def test_contains_and_len(self):
        assert "id" in SCHEMA
        assert "zzz" not in SCHEMA
        assert len(SCHEMA) == 4

    def test_dict_roundtrip(self):
        assert Schema.from_dict(SCHEMA.to_dict()) == SCHEMA

    def test_validate_columns_checks_names(self):
        with pytest.raises(SchemaMismatchError):
            SCHEMA.validate_columns({"id": np.arange(3)})

    def test_validate_columns_checks_lengths(self):
        cols = make_columns(10)
        cols["id"] = np.arange(5)
        with pytest.raises(SchemaMismatchError, match="ragged"):
            SCHEMA.validate_columns(cols)

    def test_validate_returns_row_count(self):
        assert SCHEMA.validate_columns(make_columns(17)) == 17


class TestRoundtrip:
    def test_full_roundtrip(self):
        data = write_page_file(SCHEMA, make_columns(100), row_group_size=32)
        reader = PageFileReader(data)
        out = reader.read()
        np.testing.assert_array_equal(out["id"], np.arange(100))
        assert out["name"][0] == "row-0000"
        np.testing.assert_allclose(out["score"], np.linspace(0.0, 1.0, 100))
        np.testing.assert_array_equal(out["flag"], np.arange(100) % 2 == 0)

    def test_empty_file(self):
        data = write_page_file(SCHEMA, make_columns(0))
        reader = PageFileReader(data)
        assert reader.num_rows == 0
        assert len(reader.read()["id"]) == 0

    def test_single_row(self):
        data = write_page_file(SCHEMA, make_columns(1))
        assert PageFileReader(data).num_rows == 1

    def test_row_group_boundaries(self):
        for n in (31, 32, 33, 64, 65):
            data = write_page_file(SCHEMA, make_columns(n), row_group_size=32)
            reader = PageFileReader(data)
            assert reader.num_rows == n
            assert len(reader.read()["id"]) == n

    def test_projection(self):
        data = write_page_file(SCHEMA, make_columns(10))
        out = PageFileReader(data).read(columns=["score"])
        assert list(out) == ["score"]

    def test_unicode_strings(self):
        schema = Schema.of(("s", "string"))
        values = np.array(["héllo", "wörld", "日本語", ""], dtype=object)
        data = write_page_file(schema, {"s": values})
        out = PageFileReader(data).read()
        assert list(out["s"]) == list(values)

    def test_bad_magic_rejected(self):
        with pytest.raises(FileFormatError):
            read_footer(b"not a page file at all")

    def test_truncated_rejected(self):
        data = write_page_file(SCHEMA, make_columns(10))
        with pytest.raises(FileFormatError):
            read_footer(data[:8])

    def test_rejects_bad_row_group_size(self):
        with pytest.raises(ValueError):
            write_page_file(SCHEMA, make_columns(5), row_group_size=0)


class TestStats:
    def test_minmax_numeric(self):
        stats = compute_stats(Field("x", "int64"), np.array([5, 1, 9]))
        assert stats.minimum == 1 and stats.maximum == 9

    def test_minmax_string(self):
        stats = compute_stats(
            Field("s", "string"), np.array(["b", "a", "c"], dtype=object)
        )
        assert stats.minimum == "a" and stats.maximum == "c"

    def test_empty_chunk(self):
        stats = compute_stats(Field("x", "int64"), np.array([], dtype=np.int64))
        assert stats.minimum is None
        assert stats.may_contain("==", 42)

    @pytest.mark.parametrize(
        "op,lit,expected",
        [
            ("==", 5, True), ("==", 11, False), ("==", 0, False),
            ("<", 2, True), ("<", 1, False),
            ("<=", 1, True), ("<=", 0, False),
            (">", 9, True), (">", 10, False),
            (">=", 10, True), (">=", 11, False),
        ],
    )
    def test_may_contain(self, op, lit, expected):
        stats = ColumnStats(minimum=1, maximum=10)
        assert stats.may_contain(op, lit) is expected

    def test_unknown_op_is_conservative(self):
        assert ColumnStats(1, 10).may_contain("!=", 5)


class TestPruning:
    def test_pruning_skips_row_groups(self):
        data = write_page_file(SCHEMA, make_columns(100), row_group_size=10)
        out = PageFileReader(data).read(columns=["id"], prune=[("id", ">", 89)])
        np.testing.assert_array_equal(out["id"], np.arange(90, 100))

    def test_pruning_never_loses_matches(self):
        data = write_page_file(SCHEMA, make_columns(100), row_group_size=7)
        out = PageFileReader(data).read(columns=["id"], prune=[("id", "==", 50)])
        assert 50 in out["id"]

    def test_pruning_on_missing_column_is_ignored(self):
        data = write_page_file(SCHEMA, make_columns(20), row_group_size=5)
        out = PageFileReader(data).read(columns=["id"], prune=[("ghost", ">", 3)])
        assert len(out["id"]) == 20


# -- RPF2: every type x every shape round-trips, values, dtypes and zone maps ---------

VALUES = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "float64": st.floats(allow_nan=True, allow_infinity=True),
    "bool": st.booleans(),
    # Non-ASCII, empty strings and embedded NULs included.
    "string": st.text(max_size=8) | st.sampled_from(["", "\x00", "a\x00b", "日本語", "é"]),
}
SHAPES = ("empty", "one", "all_equal", "ndv_at_half", "ndv_above_half", "boundary", "free")


def _identity(value):
    """NaN is one value: what makes drawn column values distinct."""
    return "nan" if value != value else value


@st.composite
def column_cases(draw):
    """``(type, values, row_group_size, shape)`` of one column to round-trip."""
    type_ = draw(st.sampled_from(sorted(VALUES)))
    shape = draw(st.sampled_from(SHAPES))
    group = draw(st.integers(1, 12))
    pool = VALUES[type_]
    if shape == "empty":
        values = []
    elif shape == "one":
        values = [draw(pool)]
    elif shape == "all_equal":
        values = [draw(pool)] * draw(st.integers(2, 30))
    elif shape.startswith("ndv"):
        # 2k rows in ONE chunk holding k (dictionary) or k+1 (plain) distinct values.
        half = 1 if type_ == "bool" else draw(st.integers(1, 8))
        ndv = half + (shape == "ndv_above_half")
        distinct = draw(
            st.lists(pool, min_size=ndv, max_size=ndv, unique_by=_identity)
        )
        values = draw(st.permutations((distinct * (2 * half))[: 2 * half]))
        group = 2 * half
    elif shape == "boundary":
        rows = group * draw(st.integers(1, 3)) + draw(st.sampled_from((-1, 0, 1)))
        values = draw(st.lists(pool, min_size=rows, max_size=rows))
    else:
        values = draw(st.lists(pool, max_size=40))
    return type_, values, group, shape


def _expected_bounds(values):
    """The zone map an oracle computes: min/max ignoring NaN, else unknown."""
    ordered = [v for v in values if v == v]
    return (min(ordered), max(ordered)) if ordered else (None, None)


def _chunk_tag(data, meta, chunk=0):
    offset, length = meta.offsets[chunk], meta.lengths[chunk]
    return zlib.decompress(data[offset : offset + length])[0]


class TestFormatRoundtrip:
    @given(column_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_type_and_shape(self, case):
        type_, values, group, shape = case
        fld = Field("c", type_)
        column = np.array(values, dtype=fld.numpy_dtype)
        data = write_page_file(Schema([fld]), {"c": column}, row_group_size=group)
        reader = PageFileReader(data)
        out = reader.read()["c"]
        assert out.dtype == fld.numpy_dtype
        assert reader.num_rows == len(values)
        if type_ == "string":
            assert out.tolist() == values
        else:
            assert out.tobytes() == column.tobytes()  # bit-exact: NaN, -0.0
        chunks = [values[i : i + group] for i in range(0, len(values), group)] or [[]]
        assert reader.meta.zone_map("c") == [_expected_bounds(c) for c in chunks]
        if type_ == "string" and shape.startswith("ndv"):
            want = encoding.DICT if shape == "ndv_at_half" else encoding.PLAIN
            assert _chunk_tag(data, reader.meta) == want

    def test_int64_extremes_in_one_chunk(self):
        # max - min overflows int64: the span is computed in Python ints.
        column = np.array([2**63 - 1, -(2**63), 0, -1], dtype=np.int64)
        data = write_page_file(Schema.of(("i", "int64")), {"i": column})
        reader = PageFileReader(data)
        np.testing.assert_array_equal(reader.read()["i"], column)
        assert reader.meta.zone_map("i") == [(-(2**63), 2**63 - 1)]
        assert _chunk_tag(data, reader.meta) == encoding.RAW

    @pytest.mark.parametrize("span,width", [(255, 1), (256, 2), (65_536, 4), (2**32 - 1, 4)])
    def test_int64_frame_of_reference_width(self, span, width):
        column = np.array([-7, -7 + span, 5], dtype=np.int64)
        data = write_page_file(Schema.of(("i", "int64")), {"i": column})
        reader = PageFileReader(data)
        np.testing.assert_array_equal(reader.read()["i"], column)
        meta = reader.meta
        raw = zlib.decompress(data[meta.offsets[0] : meta.offsets[0] + meta.lengths[0]])
        assert raw[:2] == bytes([encoding.FOR, width])

    def test_equal_strings_share_one_object(self):
        column = np.array(["red", "green"] * 50, dtype=object)
        data = write_page_file(Schema.of(("s", "string")), {"s": column})
        out = PageFileReader(data).read()["s"]
        assert out.tolist() == column.tolist()
        assert len({id(v) for v in out}) == 2

    def test_non_str_values_are_rendered_like_before(self):
        column = np.array([1, "b", 2.5], dtype=object)
        data = write_page_file(Schema.of(("s", "string")), {"s": column})
        assert PageFileReader(data).read()["s"].tolist() == ["1", "b", "2.5"]

    def test_reads_never_alias_each_other(self):
        data = write_page_file(SCHEMA, make_columns(10))
        reader = PageFileReader(data)
        first = reader.read()
        first["id"][:] = -1
        first["name"][:] = "clobbered"
        second = reader.read()
        np.testing.assert_array_equal(second["id"], np.arange(10))
        assert second["name"][3] == "row-0003"


class TestNanZoneMaps:
    def test_min_max_ignore_nan(self):
        values = np.arange(200, dtype=np.float64)
        values[::10] = np.nan
        stats = compute_stats(Field("x", "float64"), values)
        assert (stats.minimum, stats.maximum) == (1.0, 199.0)

    def test_all_nan_chunk_is_unknown_and_never_pruned(self):
        stats = compute_stats(Field("x", "float64"), np.full(5, np.nan))
        assert (stats.minimum, stats.maximum) == (None, None)
        assert stats.may_contain("<", 0.0)

    def test_pruning_keeps_rows_of_chunks_holding_nan(self):
        # Regression: a NaN minimum made every comparison false, so the
        # row group (and its 180 matching rows) was pruned.
        values = np.arange(200, dtype=np.float64)
        values[::10] = np.nan
        data = write_page_file(
            Schema.of(("x", "float64")), {"x": values}, row_group_size=50
        )
        reader = PageFileReader(data)
        for prune in ([("x", "<", 1000.0)], [("x", ">=", 0.0)]):
            assert reader.prune_counts(prune) == (4, 0)
            assert len(reader.read(prune=prune)["x"]) == 200
        assert reader.prune_counts([("x", ">", 150.0)]) == (1, 3)


# -- malformed files: FileFormatError naming the source, or the right rows ------------


def _valid_file():
    """Two row groups holding every type, a DICT and a PLAIN string chunk."""
    n = 40
    schema = Schema.of(
        ("i", "int64"), ("f", "float64"), ("b", "bool"), ("d", "string"), ("p", "string")
    )
    columns = {
        "i": np.arange(n, dtype=np.int64) * 1000,
        "f": np.linspace(-1.0, 1.0, n),
        "b": np.arange(n) % 3 == 0,
        "d": np.array([f"k{i % 4}" for i in range(n)], dtype=object),
        "p": np.array([f"välue-{i}" for i in range(n)], dtype=object),
    }
    return write_page_file(schema, columns, row_group_size=25), columns


def _with_chunk(monkeypatch, raw=None, payload=None):
    """A one-column int64 file whose chunk is replaced by crafted bytes."""
    genuine = encoding.encode_column

    def crafted(fld, values):
        __, stats = genuine(fld, values)
        return (payload if payload is not None else zlib.compress(raw)), stats

    monkeypatch.setattr(file_format, "encode_column", crafted)


def _reseal(data, patch):
    """Rewrite the footer through ``patch(bytearray)`` and fix its crc."""
    trailer = struct.Struct("<II4s")
    length, __, magic = trailer.unpack_from(data, len(data) - trailer.size)
    start = len(data) - trailer.size - length
    footer = bytearray(data[start : start + length])
    patch(footer)
    return data[:start] + bytes(footer) + trailer.pack(len(footer), zlib.crc32(footer), magic)


class TestMalformedFiles:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutations_raise_or_read_right(self, data):
        valid, columns = _valid_file()
        mutated = bytearray(valid)
        if data.draw(st.booleans(), label="truncate"):
            del mutated[data.draw(st.integers(0, len(valid) - 1), label="cut") :]
        for __ in range(data.draw(st.integers(0, 3), label="flips")):
            if mutated:
                at = data.draw(st.integers(0, len(mutated) - 1), label="at")
                mutated[at] = data.draw(st.integers(0, 255), label="byte")
        prune = data.draw(st.sampled_from([None, [("i", ">=", 0), ("d", ">=", "")]]))
        try:
            out = PageFileReader(bytes(mutated), source="dw/t/blob.rpf").read(prune=prune)
        except FileFormatError as exc:
            assert "dw/t/blob.rpf" in str(exc)
            return
        assert list(out) == list(columns)
        for name, want in columns.items():
            assert out[name].dtype == want.dtype
            assert out[name].tolist() == want.tolist(), name

    def _read_fails(self, schema, columns, match):
        data = write_page_file(schema, columns)
        with pytest.raises(FileFormatError, match=match) as caught:
            PageFileReader(data, source="blob.rpf").read()
        assert "blob.rpf" in str(caught.value) and "'c'" in str(caught.value)

    def test_chunk_that_is_not_zlib(self, monkeypatch):
        _with_chunk(monkeypatch, payload=b"not a zlib stream")
        self._read_fails(Schema.of(("c", "int64")), {"c": np.arange(4)}, "corrupt column chunk")

    def test_unknown_encoding_tag(self, monkeypatch):
        _with_chunk(monkeypatch, raw=b"\x09" + bytes(32))
        self._read_fails(Schema.of(("c", "int64")), {"c": np.arange(4)}, "no encoding tagged")

    def test_empty_chunk_payload(self, monkeypatch):
        _with_chunk(monkeypatch, raw=b"")
        self._read_fails(Schema.of(("c", "int64")), {"c": np.arange(4)}, "no encoding tagged")

    def test_encoding_of_another_type(self, monkeypatch):
        raw = struct.pack("<BBq", encoding.FOR, 1, 0) + bytes(4)
        _with_chunk(monkeypatch, raw=raw)
        self._read_fails(Schema.of(("c", "float64")), {"c": np.zeros(4)}, "holds float64")

    @pytest.mark.parametrize("stored", [3, 5])
    def test_row_count_disagrees_with_footer(self, monkeypatch, stored):
        # Never a silently short (or long) column.
        raw = bytes([encoding.RAW]) + np.arange(stored, dtype=np.int64).tobytes()
        _with_chunk(monkeypatch, raw=raw)
        self._read_fails(Schema.of(("c", "int64")), {"c": np.arange(4)}, "truncated|rows need")

    def test_unsupported_integer_width(self, monkeypatch):
        raw = struct.pack("<BBq", encoding.FOR, 3, 0) + bytes(12)
        _with_chunk(monkeypatch, raw=raw)
        self._read_fails(Schema.of(("c", "int64")), {"c": np.arange(4)}, "width 3")

    def test_dictionary_code_outside_dictionary(self, monkeypatch):
        raw = (
            struct.pack("<BBI", encoding.DICT, 1, 2)
            + encoding.encode_text(["a", "b"])
            + bytes([0, 1, 5, 0])
        )
        _with_chunk(monkeypatch, raw=raw)
        column = np.array(["a", "b", "a", "a"], dtype=object)
        self._read_fails(Schema.of(("c", "string")), {"c": column}, "code 5 outside")

    def test_lengths_do_not_cover_text(self, monkeypatch):
        block = bytearray(encoding.encode_text(["ab", "cd", "ef", "gh"]))
        block[5] = 1  # first length 2 -> 1: seven of eight characters covered
        _with_chunk(monkeypatch, raw=bytes([encoding.PLAIN]) + bytes(block))
        column = np.array(["ab", "cd", "ef", "gh"], dtype=object)
        self._read_fails(Schema.of(("c", "string")), {"c": column}, "cover 7 of 8")

    def test_text_that_is_not_utf8(self, monkeypatch):
        block = bytearray(encoding.encode_text(["ab", "cd"]))
        block[-1] = 0xFF
        _with_chunk(monkeypatch, raw=bytes([encoding.PLAIN]) + bytes(block))
        column = np.array(["ab", "cd"], dtype=object)
        self._read_fails(Schema.of(("c", "string")), {"c": column}, "corrupt chunk")

    def test_footer_crc_mismatch(self):
        data = bytearray(write_page_file(SCHEMA, make_columns(10)))
        data[-20] ^= 0x01
        with pytest.raises(FileFormatError, match="blob.rpf: corrupt page file footer"):
            read_footer(bytes(data), source="blob.rpf")

    def test_chunk_outside_file_body(self):
        data = write_page_file(Schema.of(("c", "int64")), {"c": np.arange(4)})
        layout_at = read_footer(data)  # one group, one column: rows, offset, length, zone
        assert layout_at.offsets == (len(MAGIC),)

        def patch(footer):
            at = footer.index(struct.pack("<3q", 4, len(MAGIC), layout_at.lengths[0]))
            struct.pack_into("<q", footer, at + 16, 10**6)

        with pytest.raises(FileFormatError, match="blob.rpf.*outside the file body"):
            read_footer(_reseal(data, patch), source="blob.rpf")

    def test_row_groups_disagree_with_header(self):
        data = write_page_file(Schema.of(("c", "int64")), {"c": np.arange(4)})

        def patch(footer):
            struct.pack_into("<Q", footer, 8, 5)

        with pytest.raises(FileFormatError, match="hold 4 rows, header says 5"):
            read_footer(_reseal(data, patch))

    def test_unknown_type_code_and_duplicate_names(self):
        data = write_page_file(
            Schema.of(("a", "int64"), ("b", "int64")),
            {"a": np.arange(2), "b": np.arange(2)},
        )

        def bad_type(footer):
            footer[16] = 9

        def same_names(footer):
            footer[footer.index(b"ab")] = ord("b")

        for patch in (bad_type, same_names):
            with pytest.raises(FileFormatError, match="bad schema"):
                read_footer(_reseal(data, patch))

    def test_legacy_magic_is_not_read(self):
        data = write_page_file(SCHEMA, make_columns(3))
        with pytest.raises(FileFormatError, match="bad magic"):
            read_footer(b"RPF1" + data[4:-4] + b"RPF1")

    def test_unknown_column_requested(self):
        data = write_page_file(SCHEMA, make_columns(3))
        with pytest.raises(SchemaMismatchError, match="ghost"):
            PageFileReader(data).read(columns=["ghost"])
