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
from repro.workloads.tpch.generator import TpchGenerator


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


# -- RPF3: every type x every shape round-trips, values, dtypes and zone maps ---------

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


# -- DEC: float64 decimals stored as scaled integers ----------------------------------

#: Spans of ``k`` around the narrow-width limits (and one past the widest).
DEC_SPANS = (0, 9, 2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32)
#: Values that must keep a chunk RAW: -0.0, NaN, infinities, a subnormal
#: and a value with five decimals.
NEAR_MISSES = (-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1.23456)


def _dec_exponent(values):
    """The exponent the rule gives a chunk, or None when it must stay RAW:
    the smallest ``e`` in 0..4 with ``rint(x * 10**e) / 10**e`` equal to
    every value bit for bit, ``|k| < 2**53`` and a span below 2**32."""
    if len(values) < encoding.DEC_SAMPLE:
        return None
    for e in range(5):
        k = np.rint(values * 10.0**e)
        if not (np.abs(k) < 2.0**53).all():  # NaN and inf fail this too
            continue
        k = k.astype(np.int64)  # an integer: -0.0 is 0
        if k.max() - k.min() < 2**32 and np.array_equal(
            (k / 10.0**e).view(np.uint64), values.view(np.uint64)
        ):
            return e
    return None


def _dec_payload(values, e):
    """The DEC payload the format describes, built without the writer."""
    k = np.rint(values * 10.0**e).astype(np.int64)
    reference = int(k.min())
    span = int(k.max()) - reference
    width = 1 if span < 2**8 else 2 if span < 2**16 else 4
    narrow = (k - reference).astype(f"<u{width}")
    return struct.pack("<BBBq", encoding.DEC, width, e, reference) + narrow.tobytes()


@st.composite
def decimal_chunks(draw):
    """A float64 chunk of decimals ``k / 10**e``: every exponent, both
    signs, ``|k|`` up to and past 2**53, spans at the width limits, 63 to
    300 rows — sometimes with a near miss or a second exponent mixed in."""
    rows = draw(st.sampled_from([63, 64, 65]) | st.integers(64, 300))
    e = draw(st.integers(0, 4))
    span = draw(st.sampled_from(DEC_SPANS) | st.integers(0, 10**6))
    if draw(st.integers(0, 3)) == 0:
        top = 2**53 - draw(st.integers(0, 3)) + draw(st.sampled_from([0, 1]))
        base = top - span
    else:
        base = draw(st.integers(-(10**9), 10**9))
    if draw(st.booleans()):
        base = -base - span  # the mirror image: negative values
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = base + rng.integers(0, span + 1, rows, dtype=np.int64)
    k[rng.permutation(rows)[:2]] = (base, base + span)
    values = k.astype(np.float64) / 10.0**e
    damage = draw(st.sampled_from(["none", "none", "near_miss", "mixed"]))
    at = draw(st.integers(0, rows - 1))
    if damage == "near_miss":
        values[at] = draw(st.sampled_from(NEAR_MISSES))
    elif damage == "mixed":
        other = draw(st.integers(0, 4).filter(lambda x: x != e))
        values[at::3] = np.rint(values[at::3] * 10.0**e) / 10.0**other
    return values


def _stored_chunk(data, meta, chunk=0):
    offset = meta.offsets[chunk]
    return data[offset : offset + meta.lengths[chunk]]


class TestDecimalChunks:
    @given(decimal_chunks())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_tag_and_size(self, values):
        data = write_page_file(
            Schema.of(("x", "float64")), {"x": values}, row_group_size=len(values)
        )
        reader = PageFileReader(data)
        assert reader.read()["x"].tobytes() == values.tobytes()  # bit-exact
        assert reader.meta.zone_map("x") == [_expected_bounds(values.tolist())]
        stored = _stored_chunk(data, reader.meta)
        raw = zlib.compress(bytes([encoding.RAW]) + values.tobytes(), 1)
        e = _dec_exponent(values)
        dec = None if e is None else zlib.compress(_dec_payload(values, e), 1)
        eligible = dec is not None and len(dec) < len(raw)
        assert stored == (dec if eligible else raw)
        assert len(stored) <= len(raw)

    @pytest.mark.parametrize("rows, tag", [(63, encoding.RAW), (64, encoding.DEC)])
    def test_sixty_four_rows_at_least(self, rows, tag):
        values = np.round(np.random.default_rng(rows).uniform(0.0, 1e5, rows), 2)
        data = write_page_file(Schema.of(("x", "float64")), {"x": values})
        reader = PageFileReader(data)
        assert _chunk_tag(data, reader.meta) == tag
        assert reader.read()["x"].tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "column, header",
        [
            # l_quantity: whole numbers 1..50; l_discount: 0.00..0.10;
            # l_extendedprice: quantity * (900 + partkey % 1000) / 10, one
            # decimal, below 5 000 at SF 0.05.
            ("l_quantity", (1, 0)),
            ("l_discount", (1, 2)),
            ("l_extendedprice", (2, 1)),
        ],
    )
    def test_tpch_floats_are_decimal(self, column, header):
        values = TpchGenerator(scale_factor=0.05, seed=3).table("lineitem")[column]
        data = write_page_file(Schema.of(("x", "float64")), {"x": values})
        meta = read_footer(data)
        raw = zlib.decompress(_stored_chunk(data, meta))
        assert (raw[0], raw[1], raw[2]) == (encoding.DEC, *header)
        assert PageFileReader(data).read()["x"].tobytes() == values.tobytes()

    def test_sequential_whole_numbers_stay_raw(self):
        # Small whole numbers as floats deflate better as RAW than as
        # uint16 offsets: the writer keeps whichever stores shorter.
        values = np.arange(300, dtype=np.float64)
        data = write_page_file(Schema.of(("x", "float64")), {"x": values})
        assert _chunk_tag(data, read_footer(data)) == encoding.RAW
        assert _dec_exponent(values) == 0


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
    """Two row groups holding every type, a DICT and a PLAIN string chunk,
    and a float column whose first chunk is DEC."""
    n = 80
    schema = Schema.of(
        ("i", "int64"),
        ("f", "float64"),
        ("b", "bool"),
        ("d", "string"),
        ("p", "string"),
        ("m", "float64"),
    )
    columns = {
        "i": np.arange(n, dtype=np.int64) * 1000,
        "f": np.linspace(-1.0, 1.0, n),
        "b": np.arange(n) % 3 == 0,
        "d": np.array([f"k{i % 4}" for i in range(n)], dtype=object),
        "p": np.array([f"välue-{i}" for i in range(n)], dtype=object),
        "m": np.round(np.random.default_rng(5).uniform(-500.0, 500.0, n), 2),
    }
    return write_page_file(schema, columns, row_group_size=64), columns


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


#: The RPF3 footer header: columns, row groups, layout width.
_FOOTER_HEADER = struct.Struct("<HIB")


def _layout_at(footer):
    """Where the layout block of ``footer`` starts, and its width."""
    columns, __, width = _FOOTER_HEADER.unpack_from(footer)
    __, at = encoding.decode_text(bytes(footer), _FOOTER_HEADER.size + columns, columns)
    return at, width


def _set_layout(index, value):
    """A ``_reseal`` patch writing ``value`` into layout entry ``index``
    (rows, then lengths, then zone starts), in the layout's width."""

    def patch(footer):
        at, width = _layout_at(footer)
        footer[at + index * width : at + (index + 1) * width] = value.to_bytes(
            width, "little"
        )

    return patch


def _zone_map_at(footer, column):
    """Where the zone map of schema position ``column`` starts."""
    columns, groups, __ = _FOOTER_HEADER.unpack_from(footer)
    at, width = _layout_at(footer)
    entries = groups + groups * columns + columns
    zone = groups + groups * columns + column
    start = int.from_bytes(footer[at + zone * width : at + (zone + 1) * width], "little")
    return at + entries * width + start


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

    @pytest.mark.parametrize(
        "payload, match",
        [
            (zlib.compress(b"abc") + b"JUNK", "4 bytes after the zlib stream"),
            (zlib.compress(b"abc" * 20)[:-3], "truncated zlib stream"),
        ],
        ids=["trailing-bytes", "truncated"],
    )
    def test_inflate_takes_exactly_one_whole_stream(self, payload, match):
        with pytest.raises(FileFormatError, match=match):
            encoding.inflate(payload)

    def test_chunk_with_bytes_after_its_stream(self, monkeypatch):
        _with_chunk(monkeypatch, payload=zlib.compress(b"\x00" + bytes(32)) + b"JUNK")
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

    @pytest.mark.parametrize(
        "raw, match",
        [
            (struct.pack("<BBBq", encoding.DEC, 1, 5, 0) + bytes(4), "exponent 5"),
            (struct.pack("<BBBq", encoding.DEC, 3, 2, 0) + bytes(12), "width 3"),
            (struct.pack("<BBBq", encoding.DEC, 2, 2, 0) + bytes(6), "truncated"),
            (struct.pack("<BBBq", encoding.DEC, 1, 2, 0) + bytes(3), "truncated"),
            (struct.pack("<BBBq", encoding.DEC, 1, 2, 0) + bytes(5), "rows need"),
            (struct.pack("<BBB", encoding.DEC, 1, 2), "corrupt chunk"),
        ],
        ids=["exponent", "width", "truncated-ints", "3-rows", "5-rows", "short-header"],
    )
    def test_malformed_decimal_chunk(self, monkeypatch, raw, match):
        _with_chunk(monkeypatch, raw=raw)
        self._read_fails(Schema.of(("c", "float64")), {"c": np.zeros(4)}, match)

    @pytest.mark.parametrize(
        "type_, column",
        [
            ("int64", np.arange(4)),
            ("bool", np.ones(4, dtype=bool)),
            ("string", np.array(list("abcd"), dtype=object)),
        ],
    )
    def test_decimal_tag_on_another_type(self, monkeypatch, type_, column):
        raw = struct.pack("<BBBq", encoding.DEC, 1, 0, 0) + bytes(4)
        _with_chunk(monkeypatch, raw=raw)
        self._read_fails(Schema.of(("c", type_)), {"c": column}, f"holds {type_}")

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
        # RPF3 stores no offsets: chunks run contiguously from the magic,
        # so lengths that do not add up to the body put a chunk into the
        # footer (or leave bytes no chunk holds).
        data = write_page_file(Schema.of(("c", "int64")), {"c": np.arange(4)})
        meta = read_footer(data)
        assert meta.offsets == (len(MAGIC),)
        for length in (meta.lengths[0] + 1, meta.lengths[0] - 1, 255):
            damaged = _reseal(data, _set_layout(1, length))
            with pytest.raises(FileFormatError, match="blob.rpf: .*add up to"):
                read_footer(damaged, source="blob.rpf")

    def test_row_groups_disagree_with_header(self):
        # RPF3 has no row count in its header (it is the sum of the row
        # groups'): a row group claiming more or fewer rows than its
        # chunks hold fails as the chunks decode.
        data = write_page_file(Schema.of(("c", "int64")), {"c": np.arange(4)})
        for rows in (3, 5):
            reader = PageFileReader(_reseal(data, _set_layout(0, rows)), "blob.rpf")
            assert reader.num_rows == rows
            with pytest.raises(
                FileFormatError, match="blob.rpf: column 'c': .*(truncated|rows need)"
            ):
                reader.read()

    def test_unknown_type_code_and_duplicate_names(self):
        data = write_page_file(
            Schema.of(("a", "int64"), ("b", "int64")),
            {"a": np.arange(2), "b": np.arange(2)},
        )

        def bad_type(footer):
            footer[_FOOTER_HEADER.size] = 9

        def same_names(footer):
            footer[footer.index(b"ab")] = ord("b")

        for patch in (bad_type, same_names):
            with pytest.raises(FileFormatError, match="bad schema"):
                read_footer(_reseal(data, patch))

    @pytest.mark.parametrize("width", [0, 3, 16])
    def test_unknown_layout_width(self, width):
        data = write_page_file(SCHEMA, make_columns(3))

        def patch(footer):
            footer[_FOOTER_HEADER.size - 1] = width

        with pytest.raises(FileFormatError, match=f"blob.rpf: .*width {width}"):
            read_footer(_reseal(data, patch), source="blob.rpf")

    def test_empty_chunk(self):
        # Lengths that add up, but one chunk is empty: it would start at
        # the footer, whose offset keys the parsed footer in the cache.
        data = write_page_file(
            Schema.of(("a", "int64"), ("b", "int64")),
            {"a": np.arange(2), "b": np.arange(2)},
        )
        first, second = read_footer(data).lengths
        damaged = _reseal(
            _reseal(data, _set_layout(1, first + second)), _set_layout(2, 0)
        )
        with pytest.raises(FileFormatError, match="blob.rpf: .*an empty chunk"):
            read_footer(damaged, source="blob.rpf")

    def test_zone_map_starts_past_the_footer(self):
        data = write_page_file(Schema.of(("c", "int64")), {"c": np.arange(4)})
        damaged = _reseal(data, _set_layout(2, 200))
        with pytest.raises(FileFormatError, match="blob.rpf: .*zone map starts"):
            read_footer(damaged, source="blob.rpf")

    @pytest.mark.parametrize("width", [0, 3, 5])
    def test_bad_int64_zone_map_width(self, width):
        data = write_page_file(Schema.of(("c", "int64")), {"c": np.arange(4)})

        def patch(footer):
            footer[_zone_map_at(footer, 0) + 1 + 8] = width  # known[1], reference

        reader = PageFileReader(_reseal(data, patch), source="blob.rpf")
        with pytest.raises(
            FileFormatError, match=f"blob.rpf: corrupt zone map of column 'c'.*width {width}"
        ):
            reader.read(prune=[("c", ">", 1)])
        assert reader.read()["c"].tolist() == [0, 1, 2, 3]  # unpruned reads need none

    def test_truncated_int64_zone_map_reference(self):
        data = write_page_file(Schema.of(("c", "int64")), {"c": np.arange(4)})

        def patch(footer):
            del footer[_zone_map_at(footer, 0) + 1 + 3 :]  # known[1], 3 of 8 bytes

        reader = PageFileReader(_reseal(data, patch), source="blob.rpf")
        with pytest.raises(FileFormatError, match="blob.rpf: corrupt zone map of column 'c'"):
            reader.read(prune=[("c", "<", 2)])

    def test_a_one_row_file_is_mostly_chunks(self):
        # A trickle insert: three columns, one row, ids below 256.
        schema = Schema.of(("id", "int64"), ("acct", "int64"), ("v", "float64"))
        data = write_page_file(
            schema, {"id": np.array([7]), "acct": np.array([3]), "v": np.array([2.5])}
        )
        meta = read_footer(data)
        assert (len(data), len(meta.footer)) == (128, 73)
        assert meta.zone_map("id") == [(7, 7)] and meta.zone_map("v") == [(2.5, 2.5)]

    def test_legacy_magic_is_not_read(self):
        data = write_page_file(SCHEMA, make_columns(3))
        with pytest.raises(FileFormatError, match="bad magic"):
            read_footer(b"RPF1" + data[4:-4] + b"RPF1")

    def test_unknown_column_requested(self):
        data = write_page_file(SCHEMA, make_columns(3))
        with pytest.raises(SchemaMismatchError, match="ghost"):
            PageFileReader(data).read(columns=["ghost"])
