"""The binary layout of a page file (format revision ``RPF3``).

Layout (all little-endian)::

    +----------------------------------------------+
    | magic "RPF3" (4 bytes)                       |
    | row group 0: column chunks, in schema order  |
    | row group 1: ...                             |
    | footer (flat binary, below)                  |
    | footer length (uint32), footer crc32 (uint32)|
    | magic "RPF3" (4 bytes)                       |
    +----------------------------------------------+

The footer is flat arrays, not an object tree, so opening a file is a
fixed handful of calls whatever the number of chunks::

    header   uint16 columns C, uint32 row groups G, uint8 layout width W
    types    uint8[C]      index into the supported type names
    names    text block of C strings (see repro.pagefile.encoding)
    layout   G + GC + C unsigned integers of W bytes (1, 2, 4 or 8: the
             narrowest that holds the largest), one array after the other:
             rows[G]       row count of each row group
             lengths[G*C]  chunk lengths, row group by row group
             zones[C]      where each column's zone map starts, counted
                           from the end of the layout
    zone maps, one per column:
             uint8[G] known, then minimum[G] and maximum[G]: for int64
             an int64 reference (the smallest bound), a width byte and
             each bound minus the reference in the narrowest unsigned
             width (1, 2, 4 or 8 bytes); for float64 and bool the
             column's type; for strings one text block of the G minima
             followed by the G maxima

Nothing is stored that the rest determines.  Chunks are contiguous from
the magic, so chunk ``i`` starts at ``4 + sum(lengths[:i])`` and the
lengths must add up to exactly the footer's start; the file's row count
is ``sum(rows)``, and a chunk whose payload holds another row count fails
to decode.  Most files a warehouse writes are trickle inserts of a few
rows, whose footer is most of the file: narrow integers keep it small.

The layout block is read with one ``struct.unpack_from`` (Python ints are
what the reader indexes and slices with, and for the one- or two-group
files a warehouse mostly writes that is cheaper than ``np.frombuffer``
plus ``tolist``).  Zone maps are parsed only for the columns a scan
prunes on (:meth:`PageFile.zone_map`).  Readers fetch the footer first
(by slicing from the end), then only the chunks they need — mirroring
how engines read Parquet from object stores.  The crc32 covers the
footer; each chunk is a zlib stream and carries zlib's own checksum.

A :class:`PageFile` is immutable and a pure function of the footer bytes,
where they start and the blob path, so every reader of one blob can share
it: the chunk cache keeps it beside the chunks, and a reader that finds
it there runs :func:`checked_footer` on the bytes in hand and skips only
:func:`_parse_footer`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.common.errors import FileFormatError, SchemaMismatchError
from repro.pagefile.encoding import decode_text, encode_column, encode_text
from repro.pagefile.schema import SUPPORTED_TYPES, Schema
from repro.pagefile.stats import ColumnStats

MAGIC = b"RPF3"
DEFAULT_ROW_GROUP_SIZE = 65_536

_HEADER = struct.Struct("<HIB")  # columns, row groups, layout width
_TRAILER = struct.Struct("<II4s")  # footer length, footer crc32, magic
_INT_ZONE = struct.Struct("<qB")  # int64 zone map: reference, width
#: ``struct`` codes of the fixed-width zone-map bounds, by field type.
_BOUND_CODES = {"float64": "d", "bool": "?"}
#: ``struct`` code of an unsigned integer, by width in bytes.
_UINT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: One row group's ``(minimum, maximum)`` of a column; ``(None, None)``
#: when unknown (an empty chunk, or floats that are all NaN).
Bounds = Tuple[Optional[Any], Optional[Any]]

#: What :attr:`PageFile.nbytes` charges on top of the footer bytes: the
#: objects themselves (the dataclass, its tuples, the positions dict and
#: its read-only view), each parsed ``int`` (an object plus a slot in the
#: layout tuple and in the slice it belongs to) and each column (its name
#: ``str`` and positions-dict entry, plus the name's characters).  Upper
#: bounds, checked with ``tracemalloc`` by the chunk-cache tests.
_FIXED_BYTES = 640
_INT_BYTES = 40
_COLUMN_BYTES = 128


@dataclass(frozen=True, slots=True)
class PageFile:
    """Parsed footer of a page file: everything needed to plan reads.

    Immutable — tuples and a read-only ``positions`` — because every
    reader of a blob shares the one the chunk cache holds.
    """

    #: Column names and logical types, in schema order.
    names: Tuple[str, ...]
    types: Tuple[str, ...]
    num_rows: int
    #: Row count of each row group.
    group_rows: Tuple[int, ...]
    #: Chunk offsets and lengths, row group by row group: the chunk of
    #: column ``c`` in row group ``g`` is entry ``g * len(names) + c``.
    offsets: Tuple[int, ...]
    lengths: Tuple[int, ...]
    #: Column name -> position in the schema (a read-only view).
    positions: Mapping[str, int]
    #: ``"<blob path>: "`` (or empty): the prefix of every error raised
    #: about this file, so reports name the exact blob.
    origin: str
    #: The footer bytes this was parsed from (the crc32 covers them).
    footer: bytes
    _zones: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Memory this parsed footer holds, footer bytes included (an
        upper bound, and what the chunk cache charges for it)."""
        ints = len(self.group_rows) + len(self.offsets) + len(self.lengths)
        return (
            len(self.footer)
            + len(self.origin)
            + _FIXED_BYTES
            + _INT_BYTES * (ints + len(self._zones))
            + sum(_COLUMN_BYTES + len(name) for name in self.names)
        )

    @property
    def schema(self) -> Schema:
        """The file's schema (built on demand: opening a file does not)."""
        return Schema.of(*zip(self.names, self.types))

    def position(self, column: str) -> int:
        """Schema position of a column; raises :class:`SchemaMismatchError`."""
        try:
            return self.positions[column]
        except KeyError:
            raise SchemaMismatchError(
                f"{self.origin}no field named {column!r}"
            ) from None

    def zone_map(self, column: str) -> List[Bounds]:
        """``(minimum, maximum)`` of ``column`` per row group, in file order."""
        position = self.position(column)
        groups = len(self.group_rows)
        footer, start = self.footer, self._zones[position]
        try:
            known = footer[start : start + groups]
            if len(known) != groups:
                raise FileFormatError("truncated")
            type_ = self.types[position]
            reference = 0
            if type_ == "int64":
                reference, width = _INT_ZONE.unpack_from(footer, start + groups)
                bounds = _unpack_uints(
                    footer, start + groups + _INT_ZONE.size, 2 * groups, width
                )
            elif type_ == "string":
                bounds = decode_text(footer, start + groups, 2 * groups)[0]
            else:
                code = _BOUND_CODES[type_]
                bounds = struct.unpack_from(f"<{2 * groups}{code}", footer, start + groups)
        except (struct.error, UnicodeDecodeError, FileFormatError) as exc:
            raise FileFormatError(
                f"{self.origin}corrupt zone map of column {column!r} ({exc})"
            ) from None
        if reference:
            bounds = [reference + bound for bound in bounds]
        return [
            (lo, hi) if flag else (None, None)
            for flag, lo, hi in zip(known, bounds[:groups], bounds[groups:])
        ]


def _width_of(limit: int) -> int:
    """The narrowest unsigned width, in bytes, holding ``limit``."""
    return 1 if limit < 1 << 8 else 2 if limit < 1 << 16 else 4 if limit < 1 << 32 else 8


def _pack_uints(values: List[int]) -> Tuple[int, bytes]:
    """``values`` in the narrowest unsigned width: ``(width, bytes)``."""
    width = _width_of(max(values, default=0))
    return width, struct.pack(f"<{len(values)}{_UINT_CODES[width]}", *values)


def _unpack_uints(data: bytes, at: int, count: int, width: int) -> Tuple[int, ...]:
    """``count`` unsigned integers of ``width`` bytes at ``at``."""
    code = _UINT_CODES.get(width)
    if code is None:
        raise FileFormatError(f"unsupported integer width {width}")
    return struct.unpack_from(f"<{count}{code}", data, at)


def write_page_file(
    schema: Schema,
    columns: Dict[str, np.ndarray],
    row_group_size: int = DEFAULT_ROW_GROUP_SIZE,
) -> bytes:
    """Serialize a column dict into page-file bytes."""
    num_rows = schema.validate_columns(columns)
    if row_group_size <= 0:
        raise ValueError("row_group_size must be positive")
    body = bytearray(MAGIC)
    group_rows: List[int] = []
    lengths: List[int] = []
    zone_maps: List[List[ColumnStats]] = [[] for _ in schema]
    starts = range(0, num_rows, row_group_size) if num_rows else [0]
    for start in starts:
        stop = min(start + row_group_size, num_rows)
        group_rows.append(stop - start)
        for fld, zone_map in zip(schema, zone_maps):
            payload, stats = encode_column(fld, columns[fld.name][start:stop])
            lengths.append(len(payload))
            zone_map.append(stats)
            body.extend(payload)
    types = [fld.type for fld in schema]
    maps = [_encode_zone_map(*pair) for pair in zip(types, zone_maps)]
    zones = list(accumulate(map(len, maps[:-1]), initial=0)) if maps else []
    width, layout = _pack_uints(group_rows + lengths + zones)
    footer = b"".join(
        [
            _HEADER.pack(len(types), len(group_rows), width),
            bytes(map(SUPPORTED_TYPES.index, types)),
            encode_text(schema.names),
            layout,
        ]
        + maps
    )
    body.extend(footer)
    body.extend(_TRAILER.pack(len(footer), zlib.crc32(footer), MAGIC))
    return bytes(body)


def _encode_zone_map(type_: str, zone_map: List[ColumnStats]) -> bytes:
    known = bytes(stats.minimum is not None for stats in zone_map)
    blank = "" if type_ == "string" else 0
    bounds = [blank if stats.minimum is None else stats.minimum for stats in zone_map]
    bounds += [blank if stats.maximum is None else stats.maximum for stats in zone_map]
    if type_ == "int64":
        reference = min(bounds)
        width, packed = _pack_uints([bound - reference for bound in bounds])
        return known + _INT_ZONE.pack(reference, width) + packed
    if type_ == "string":
        return known + encode_text(bounds)
    return known + struct.pack(f"<{len(bounds)}{_BOUND_CODES[type_]}", *bounds)


def read_footer(data: bytes, source: "str | None" = None) -> PageFile:
    """Parse the footer of page-file bytes into a :class:`PageFile`.

    ``source`` (the blob path, when the caller knows it) is woven into
    error messages so corrupt-file reports are self-describing — a
    scrubber or quarantine log names the exact blob, not just "a file".
    """
    origin = f"{source}: " if source else ""
    footer, footer_start = checked_footer(data, origin)
    try:
        return _parse_footer(footer, footer_start, origin)
    except (struct.error, UnicodeDecodeError, FileFormatError) as exc:
        raise FileFormatError(f"{origin}corrupt page file footer ({exc})") from None


def checked_footer(data: bytes, origin: str = "") -> Tuple[bytes, int]:
    """The footer bytes of page-file ``data`` and the offset they start at.

    Checks the magic at both ends, the trailer's footer length and the
    footer crc32: everything about the footer short of parsing it.
    ``origin`` (``"<blob path>: "`` or empty) prefixes every error.
    """
    size = len(data)
    if size < len(MAGIC) + _TRAILER.size or data[:4] != MAGIC or data[-4:] != MAGIC:
        head = bytes(data[:4])
        tail = bytes(data[-4:]) if size >= 4 else b""
        raise FileFormatError(
            f"{origin}not a page file (bad magic: expected {MAGIC!r} at both "
            f"ends, got head {head!r} / tail {tail!r} over {size} bytes)"
        )
    footer_len, crc, __ = _TRAILER.unpack_from(data, size - _TRAILER.size)
    footer_start = size - _TRAILER.size - footer_len
    if footer_start < len(MAGIC):
        raise FileFormatError(
            f"{origin}corrupt page file footer (footer length {footer_len} "
            f"exceeds file size {size})"
        )
    footer = data[footer_start : footer_start + footer_len]
    if zlib.crc32(footer) != crc:
        raise FileFormatError(
            f"{origin}corrupt page file footer (crc32 {zlib.crc32(footer):08x} "
            f"where the trailer records {crc:08x})"
        )
    return footer, footer_start


def _parse_footer(footer: bytes, body_end: int, origin: str) -> PageFile:
    columns, groups, width = _HEADER.unpack_from(footer)
    codes = footer[_HEADER.size : _HEADER.size + columns]
    names, at = decode_text(footer, _HEADER.size + columns, columns)
    positions = {name: position for position, name in enumerate(names)}
    if len(positions) != columns or max(codes, default=0) >= len(SUPPORTED_TYPES):
        raise FileFormatError(f"bad schema: names {names}, type codes {list(codes)}")
    chunks = groups * columns
    layout = _unpack_uints(footer, at, groups + chunks + columns, width)
    group_rows = layout[:groups]
    lengths = layout[groups : groups + chunks]
    # Chunks are contiguous from the magic to the footer, none empty (a
    # zlib stream never is), so every chunk starts before the footer and
    # no chunk-cache key of a parsed file equals the key its footer is
    # cached under.
    offsets = tuple(accumulate(lengths, initial=len(MAGIC)))
    if offsets[-1] != body_end:
        raise FileFormatError(
            f"chunk lengths add up to {offsets[-1] - len(MAGIC)} bytes where "
            f"the file body holds {body_end - len(MAGIC)}"
        )
    if 0 in lengths:
        raise FileFormatError("an empty chunk")
    zones_at = at + width * len(layout)
    zones = tuple(zones_at + zone for zone in layout[groups + chunks :])
    if max(zones, default=0) > len(footer):
        raise FileFormatError(
            f"a zone map starts at byte {max(zones)} of a {len(footer)}-byte footer"
        )
    return PageFile(
        names=tuple(names),
        types=tuple(SUPPORTED_TYPES[code] for code in codes),
        num_rows=sum(group_rows),
        group_rows=group_rows,
        offsets=offsets[:-1],
        lengths=lengths,
        positions=MappingProxyType(positions),
        origin=origin,
        footer=footer,
        _zones=zones,
    )
