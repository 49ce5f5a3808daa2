"""The binary layout of a page file (format revision ``RPF2``).

Layout (all little-endian)::

    +----------------------------------------------+
    | magic "RPF2" (4 bytes)                       |
    | row group 0: column chunks, in schema order  |
    | row group 1: ...                             |
    | footer (flat binary, below)                  |
    | footer length (uint32), footer crc32 (uint32)|
    | magic "RPF2" (4 bytes)                       |
    +----------------------------------------------+

The footer is flat arrays, not an object tree, so opening a file is a
fixed handful of calls whatever the number of chunks::

    header   uint32 columns C, uint32 row groups G, uint64 rows
    types    uint8[C]      index into the supported type names
    names    text block of C strings (see repro.pagefile.encoding)
    layout   int64[G + 2GC + C], one array after the other:
             rows[G]       row count of each row group
             offsets[G*C]  chunk offsets, row group by row group
             lengths[G*C]  chunk lengths, likewise
             zones[C]      where each column's zone map starts
    zone maps, one per column:
             uint8[G] known, then minimum[G] and maximum[G] in the
             column's type — for strings one text block of the G minima
             followed by the G maxima

The layout block is read with one ``struct.unpack_from`` (Python ints are
what the reader indexes and slices with, and for the one- or two-group
files a warehouse mostly writes that is cheaper than ``np.frombuffer``
plus ``tolist``).  Zone maps are parsed only for the columns a scan
prunes on (:meth:`PageFile.zone_map`).  Readers fetch the footer first
(by slicing from the end), then only the chunks they need — mirroring
how engines read Parquet from object stores.  The crc32 covers the
footer; each chunk is a zlib stream and carries zlib's own checksum.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from operator import add
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import FileFormatError, SchemaMismatchError
from repro.pagefile.encoding import decode_text, encode_column, encode_text
from repro.pagefile.schema import SUPPORTED_TYPES, Schema
from repro.pagefile.stats import ColumnStats

MAGIC = b"RPF2"
DEFAULT_ROW_GROUP_SIZE = 65_536

_HEADER = struct.Struct("<IIQ")  # columns, row groups, rows
_TRAILER = struct.Struct("<II4s")  # footer length, footer crc32, magic
#: ``struct`` codes of the fixed-width zone-map bounds, by field type.
_BOUND_CODES = {"int64": "q", "float64": "d", "bool": "?"}

#: One row group's ``(minimum, maximum)`` of a column; ``(None, None)``
#: when unknown (an empty chunk, or floats that are all NaN).
Bounds = Tuple[Optional[Any], Optional[Any]]


@dataclass
class PageFile:
    """Parsed footer of a page file: everything needed to plan reads."""

    #: Column names and logical types, in schema order.
    names: List[str]
    types: List[str]
    num_rows: int
    #: Row count of each row group.
    group_rows: Tuple[int, ...]
    #: Chunk offsets and lengths, row group by row group: the chunk of
    #: column ``c`` in row group ``g`` is entry ``g * len(names) + c``.
    offsets: Tuple[int, ...]
    lengths: Tuple[int, ...]
    #: Column name -> position in the schema.
    positions: Dict[str, int]
    #: ``"<blob path>: "`` (or empty): the prefix of every error raised
    #: about this file, so reports name the exact blob.
    origin: str
    _footer: bytes
    _zones: Tuple[int, ...]

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
        footer, start = self._footer, self._zones[position]
        try:
            known = footer[start : start + groups]
            if len(known) != groups:
                raise FileFormatError("truncated")
            code = _BOUND_CODES.get(self.types[position])
            if code is None:
                bounds = decode_text(footer, start + groups, 2 * groups)[0]
            else:
                bounds = struct.unpack_from(f"<{2 * groups}{code}", footer, start + groups)
        except (struct.error, UnicodeDecodeError, FileFormatError) as exc:
            raise FileFormatError(
                f"{self.origin}corrupt zone map of column {column!r} ({exc})"
            ) from None
        return [
            (lo, hi) if flag else (None, None)
            for flag, lo, hi in zip(known, bounds[:groups], bounds[groups:])
        ]


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
    offsets: List[int] = []
    lengths: List[int] = []
    zone_maps: List[List[ColumnStats]] = [[] for _ in schema]
    starts = range(0, num_rows, row_group_size) if num_rows else [0]
    for start in starts:
        stop = min(start + row_group_size, num_rows)
        group_rows.append(stop - start)
        for fld, zone_map in zip(schema, zone_maps):
            payload, stats = encode_column(fld, columns[fld.name][start:stop])
            offsets.append(len(body))
            lengths.append(len(payload))
            zone_map.append(stats)
            body.extend(payload)
    types = [fld.type for fld in schema]
    sections = [
        _HEADER.pack(len(types), len(group_rows), num_rows),
        bytes(map(SUPPORTED_TYPES.index, types)),
        encode_text(schema.names),
    ]
    maps = [_encode_zone_map(*pair) for pair in zip(types, zone_maps)]
    layout = group_rows + offsets + lengths
    at = sum(map(len, sections)) + 8 * (len(layout) + len(maps))
    for encoded in maps:
        layout.append(at)
        at += len(encoded)
    footer = b"".join(sections + [struct.pack(f"<{len(layout)}q", *layout)] + maps)
    body.extend(footer)
    body.extend(_TRAILER.pack(len(footer), zlib.crc32(footer), MAGIC))
    return bytes(body)


def _encode_zone_map(type_: str, zone_map: List[ColumnStats]) -> bytes:
    known = bytes(stats.minimum is not None for stats in zone_map)
    blank = "" if type_ == "string" else 0
    bounds = [blank if stats.minimum is None else stats.minimum for stats in zone_map]
    bounds += [blank if stats.maximum is None else stats.maximum for stats in zone_map]
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
    try:
        return _parse_footer(footer, footer_start, origin)
    except (struct.error, UnicodeDecodeError, FileFormatError) as exc:
        raise FileFormatError(f"{origin}corrupt page file footer ({exc})") from None


def _parse_footer(footer: bytes, body_end: int, origin: str) -> PageFile:
    columns, groups, num_rows = _HEADER.unpack_from(footer)
    codes = footer[_HEADER.size : _HEADER.size + columns]
    names, at = decode_text(footer, _HEADER.size + columns, columns)
    positions = {name: position for position, name in enumerate(names)}
    if len(positions) != columns or max(codes, default=0) >= len(SUPPORTED_TYPES):
        raise FileFormatError(f"bad schema: names {names}, type codes {list(codes)}")
    chunks = groups * columns
    layout = struct.unpack_from(f"<{groups + 2 * chunks + columns}q", footer, at)
    group_rows = layout[:groups]
    offsets = layout[groups : groups + chunks]
    lengths = layout[groups + chunks : groups + 2 * chunks]
    if min(layout, default=0) < 0:
        raise FileFormatError("negative row count, chunk offset or chunk length")
    if sum(group_rows) != num_rows:
        raise FileFormatError(
            f"row groups hold {sum(group_rows)} rows, header says {num_rows}"
        )
    if chunks and (
        min(offsets) < len(MAGIC) or max(map(add, offsets, lengths)) > body_end
    ):
        raise FileFormatError(f"a chunk lies outside the file body [4, {body_end})")
    return PageFile(
        names=names,
        types=[SUPPORTED_TYPES[code] for code in codes],
        num_rows=num_rows,
        group_rows=group_rows,
        offsets=offsets,
        lengths=lengths,
        positions=positions,
        origin=origin,
        _footer=footer,
        _zones=layout[groups + 2 * chunks :],
    )
