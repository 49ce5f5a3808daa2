"""Column-chunk encoding: numpy arrays ⇄ compressed bytes.

Every chunk is one zlib stream (level 1 — fast, and the point is
realistic size accounting, not maximal ratio) over an *encoded* payload
whose first byte tags how it was encoded.  The writer picks the encoding
from the chunk's own values; nothing is configurable:

=========  ===========================================================
tag        payload after the tag byte
=========  ===========================================================
``RAW``    the little-endian buffer of the field's dtype (``bool``,
           ``int64`` chunks spanning 2**32 or more, and ``float64``
           chunks that are not ``DEC``)
``FOR``    ``int64`` frame of reference: width byte, ``int64`` minimum,
           then ``value - minimum`` in the narrowest unsigned width
           that holds ``max - min``
``DICT``   strings whose distinct values are at most half the rows:
           code width byte, ``uint32`` dictionary size, the dictionary
           as a text block (first-appearance order), then one code per
           row in the narrowest unsigned width
``PLAIN``  every other string chunk: one text block
``DEC``    ``float64`` decimals: width byte, exponent byte ``e`` (0..4),
           ``int64`` reference, then ``k - reference`` in the narrowest
           unsigned width, where every value is ``k / 10**e``
=========  ===========================================================

``DEC`` is the decimal step of ALP (Afroozeh, Kuffó and Boncz, SIGMOD
2023).  The writer tries it on ``float64`` chunks of at least
:data:`DEC_SAMPLE` rows: the smallest ``e`` for which ``rint(x * 10**e)``
divided back by ``10**e`` gives every value bit for bit, with ``|k| <
2**53`` and ``max(k) - min(k) < 2**32``.  It keeps the ``DEC`` chunk only
when decoding its payload returns the chunk's exact bits and the stored
(compressed) chunk is shorter than ``RAW``'s, so ``-0.0``, NaN, ``inf``
and any value with more decimals keep their chunk ``RAW``.  Decoding is
``(narrow + reference) / 10.0**e`` in ``float64``: exact, because ``k``
and ``10**e`` are, and IEEE division rounds correctly.

A *text block* is ``width byte, uint32 UTF-8 length, lengths[count],
UTF-8 bytes``: the values concatenated and encoded once, with their
lengths counted in characters, so decoding is one ``bytes.decode`` plus
slices of the resulting ``str`` and non-ASCII needs no byte map.

Decoding always builds fresh arrays: nothing returned aliases ``raw``,
which may be an entry of the shared chunk cache.

A ``DICT`` chunk decodes to a :class:`DictArray`: the same object array of
``str`` as ever, which additionally remembers its codes and dictionary so
the engine can work once per dictionary entry instead of once per row.
The hint survives exactly three operations — :func:`dict_array`
(construct), :func:`select` (rows) and :func:`concat` — and every other
numpy operation drops it, so it can change how fast an answer comes, never
the answer.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import FileFormatError
from repro.pagefile.schema import NUMPY_DTYPES, Field
from repro.pagefile.stats import ColumnStats, compute_stats, string_items

_COMPRESSION_LEVEL = 1

RAW, FOR, DICT, PLAIN, DEC = range(5)

_FOR_HEADER = struct.Struct("<BBq")  # tag, width, reference
_DEC_HEADER = struct.Struct("<BBBq")  # tag, width, exponent, reference
_DICT_HEADER = struct.Struct("<BBI")  # tag, code width, dictionary size
_TEXT_HEADER = struct.Struct("<BI")  # length width, UTF-8 byte length

#: Rows the ``DEC`` detector samples first, and the fewest rows a chunk
#: needs before ``DEC`` is tried at all: below it the detector costs more
#: than the bytes it could save (with the floor at one row, a 5-row
#: chunk's encode took 49 µs instead of 14 µs).
DEC_SAMPLE = 64
#: Bytes of a ``RAW`` payload compressed per step while it races ``DEC``.
_STREAM_STEP = 1 << 14
#: ``10.0**e`` for the exponents ``DEC`` allows; every one is exact.
_SCALES = (1.0, 10.0, 100.0, 1000.0, 10000.0)
#: Integers below this magnitude are exact in ``float64``.
_EXACT = float(1 << 53)

#: Unsigned dtypes by item size — the widths a narrowed array may take.
_UINTS = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


def _narrowest(limit: int) -> np.dtype:
    """The narrowest unsigned dtype holding ``limit`` (below 2**32)."""
    return _UINTS[1 if limit < 1 << 8 else 2 if limit < 1 << 16 else 4]


class DictArray(np.ndarray):
    """An object array of ``str`` that may carry a dictionary hint.

    With the hint set, ``values[i] == dictionary[codes[i]]`` for every row
    — the one invariant; ``dictionary`` may hold equal entries more than
    once.  ``__array_finalize__`` runs for every array numpy derives from
    this one (a slice, ``.copy()``, a ufunc result, ``np.where``) and
    leaves the new array *without* a hint: only the three helpers below
    attach one, each from codes it selected or merged itself; assigning
    into the array drops it too.
    """

    codes: Optional[np.ndarray]
    dictionary: Optional[np.ndarray]

    def __array_finalize__(self, obj: Optional[np.ndarray]) -> None:
        self.codes = None
        self.dictionary = None

    def __array_wrap__(
        self, array: np.ndarray, context: Any = None, return_scalar: bool = False
    ) -> Any:
        """What a ufunc over this array returns — a comparison's mask, a
        reduction's value — is the plain array or scalar a plain object
        array would have given."""
        return array[()] if return_scalar else array

    def __iter__(self) -> Iterator[Any]:
        # numpy walks a subclass through ``__getitem__``, 17x slower than
        # the base class's own iterator (100k values: 18 ms against 1 ms).
        return iter(self.view(np.ndarray))

    def __setitem__(self, key: Any, value: Any) -> None:
        self.codes = None
        self.dictionary = None
        super().__setitem__(key, value)


def dict_array(
    codes: np.ndarray, dictionary: np.ndarray, values: Optional[np.ndarray] = None
) -> DictArray:
    """Construct the hinted column ``dictionary[codes]`` (``values``, when
    the caller already holds that array)."""
    out = (dictionary[codes] if values is None else values).view(DictArray)
    out.codes, out.dictionary = codes, dictionary
    return out


def select(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values[rows]`` (an index array or a boolean mask), hint kept."""
    codes = getattr(values, "codes", None)
    if codes is None:
        return values[rows]
    return dict_array(codes[rows], values.dictionary, values[rows])


def concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)``; hinted when every part is.

    Parts sharing one dictionary object keep it.  Otherwise the
    dictionaries are merged by one pass over their *entries* (equal
    entries collapse to the first) and each part's codes are gathered
    through its entry → merged-code table.
    """
    if len(parts) == 1:
        return parts[0]
    values = np.concatenate(parts)
    if values.dtype.kind != "O" or any(
        getattr(part, "codes", None) is None for part in parts
    ):
        return values
    dictionary = parts[0].dictionary
    if all(part.dictionary is dictionary for part in parts):
        return dict_array(
            np.concatenate([part.codes for part in parts]), dictionary, values
        )
    merged: Dict[str, int] = {}
    tables = [
        [merged.setdefault(entry, len(merged)) for entry in part.dictionary.tolist()]
        for part in parts
    ]
    dtype = _narrowest(len(merged))
    codes = np.concatenate(
        [np.array(table, dtype)[part.codes] for table, part in zip(tables, parts)]
    )
    return dict_array(codes, np.fromiter(merged, object, count=len(merged)), values)


def encode_column(field: Field, values: np.ndarray) -> Tuple[bytes, ColumnStats]:
    """Encode one column chunk; returns its compressed bytes and zone map."""
    if field.type == "string":
        raw, stats = _encode_strings(values)
        return zlib.compress(raw, _COMPRESSION_LEVEL), stats
    arr = np.ascontiguousarray(values, dtype=field.numpy_dtype)
    stats = compute_stats(field, arr)
    raw = _encode_fixed(field, arr, stats)
    decimal = _encode_decimal(arr) if field.type == "float64" else None
    if decimal is None:
        return zlib.compress(raw, _COMPRESSION_LEVEL), stats
    stored = zlib.compress(decimal, _COMPRESSION_LEVEL)
    return _compress_within(raw, len(stored)) or stored, stats


def _compress_within(payload: bytes, limit: int) -> Optional[bytes]:
    """``zlib.compress(payload)`` when that is at most ``limit`` bytes,
    else None — known as soon as the output passes ``limit``, so a
    ``RAW`` chunk that loses to ``DEC`` is mostly not compressed at all.

    Streamed in :data:`_STREAM_STEP` pieces; zlib's output for a prefix
    is a prefix of its output for the whole, and the same bytes."""
    if len(payload) <= _STREAM_STEP:
        stored = zlib.compress(payload, _COMPRESSION_LEVEL)
        return stored if len(stored) <= limit else None
    compressor = zlib.compressobj(_COMPRESSION_LEVEL)
    view = memoryview(payload)
    parts: List[bytes] = []
    size = 0
    for start in range(0, len(view), _STREAM_STEP):
        parts.append(compressor.compress(view[start : start + _STREAM_STEP]))
        size += len(parts[-1])
        if size > limit:
            return None
    parts.append(compressor.flush())
    return b"".join(parts) if size + len(parts[-1]) <= limit else None


def inflate(payload: bytes, what: str = "column chunk") -> bytes:
    """Decompress one zlib stream that fills ``payload`` exactly: a chunk
    into its encoded payload (what the cache holds), or the body of a
    deletion vector.  (Table metadata has its own codec,
    :mod:`repro.lst.codec`.)

    ``zlib.decompress`` silently ignores bytes after the end of the
    stream; here they, a stream cut short and a corrupt one all raise
    :class:`FileFormatError` ("corrupt ``what``").
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload)
    except zlib.error as exc:
        raise FileFormatError(f"corrupt {what} ({exc})") from None
    if not inflater.eof:
        raise FileFormatError(f"corrupt {what} (truncated zlib stream)")
    if inflater.unused_data:
        raise FileFormatError(
            f"corrupt {what} ({len(inflater.unused_data)} bytes after the "
            "zlib stream)"
        )
    return raw


def decode_column(type_: str, raw: bytes, num_rows: int) -> np.ndarray:
    """Decode an inflated chunk payload into a fresh array of ``num_rows``
    values of logical type ``type_``."""
    decoder, types = _DECODERS.get(raw[0] if raw else None, (None, ()))
    if type_ not in types:
        raise FileFormatError(f"no encoding tagged {raw[:1]!r} holds {type_} values")
    try:
        values, end = decoder(type_, raw, num_rows)
    except (struct.error, UnicodeDecodeError) as exc:
        raise FileFormatError(f"corrupt chunk ({exc})") from None
    if end != len(raw):
        raise FileFormatError(
            f"chunk holds {len(raw)} bytes where {num_rows} rows need {end}"
        )
    return values


def cache_entry(raw: bytes, values: np.ndarray) -> bytes:
    """What the chunk cache keeps of the inflated payload ``raw`` that
    decoded to ``values``: ``raw`` itself, but a ``DEC`` payload as the
    ``RAW`` payload of its values — of the same size as the chunk would
    have cached as ``RAW`` — so a hit copies, never divides."""
    if raw[0] != DEC:
        return raw
    return b"".join((bytes([RAW]), memoryview(values)))


# -- fixed-width values ----------------------------------------------------------


def _encode_fixed(field: Field, arr: np.ndarray, stats: ColumnStats) -> bytes:
    """FOR for an ``int64`` chunk spanning less than 2**32, RAW otherwise."""
    if field.type == "int64" and stats.minimum is not None:
        span = stats.maximum - stats.minimum  # Python ints: int64 would overflow
        if span < 1 << 32:
            dtype = _narrowest(span)
            narrow = (arr - stats.minimum).astype(dtype)
            header = _FOR_HEADER.pack(FOR, dtype.itemsize, stats.minimum)
            return header + narrow.tobytes()
    return bytes([RAW]) + arr.tobytes()


def _encode_decimal(arr: np.ndarray) -> Optional[bytes]:
    """The ``DEC`` payload of ``float64`` chunk ``arr``, or None when it
    has fewer than :data:`DEC_SAMPLE` rows or no exponent gives every
    value back.

    ``DEC_SAMPLE`` evenly spaced rows reject most other chunks in a few
    microseconds and name the smallest exponent worth trying on the whole
    chunk: one that fits every value fits the sample.  The payload is
    returned only once its integers, decoded, have given back ``arr`` bit
    for bit.
    """
    if len(arr) < DEC_SAMPLE:
        return None
    sample = arr[:: len(arr) // DEC_SAMPLE][:DEC_SAMPLE]
    sample_bits = sample.tobytes()
    smallest = next(
        (
            e
            for e, scale in enumerate(_SCALES)
            if (np.rint(sample * scale) / scale).tobytes() == sample_bits
        ),
        None,
    )
    if smallest is None:
        return None
    bits = arr.tobytes()
    for exponent in range(smallest, len(_SCALES)):
        k = arr * _SCALES[exponent]
        np.rint(k, out=k)
        low, high = k.min(), k.max()
        if not -_EXACT < low <= high < _EXACT:
            return None  # NaN, inf or a |k| too large: larger e cannot help
        span = int(high - low)
        if span >= 1 << 32:
            return None
        k -= low
        narrow = k.astype(_narrowest(span))
        reference = int(low)
        if _decimal_values(narrow, reference, exponent).tobytes() == bits:
            header = _DEC_HEADER.pack(DEC, narrow.itemsize, exponent, reference)
            return header + narrow.tobytes()
    return None


def _view(raw: bytes, dtype: np.dtype, count: int, offset: int) -> np.ndarray:
    """A read-only array over ``count`` items of ``raw``, bounds-checked."""
    if offset + count * dtype.itemsize > len(raw):
        raise FileFormatError(
            f"chunk truncated: {count} x {dtype} at byte {offset} "
            f"pass its {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype=dtype, count=count, offset=offset)


def _width(width: int) -> np.dtype:
    try:
        return _UINTS[width]
    except KeyError:
        raise FileFormatError(f"unsupported integer width {width}") from None


def _decode_raw(type_: str, raw: bytes, num_rows: int) -> Tuple[np.ndarray, int]:
    dtype = NUMPY_DTYPES[type_]
    values = _view(raw, dtype, num_rows, 1).copy()
    return values, 1 + values.nbytes


def _decode_for(type_: str, raw: bytes, num_rows: int) -> Tuple[np.ndarray, int]:
    __, width, reference = _FOR_HEADER.unpack_from(raw)
    narrow = _view(raw, _width(width), num_rows, _FOR_HEADER.size)
    # One pass: widen and add the reference into a fresh int64 array.
    values = np.add(narrow, reference, dtype=np.int64)
    return values, _FOR_HEADER.size + narrow.nbytes


def _decode_dec(type_: str, raw: bytes, num_rows: int) -> Tuple[np.ndarray, int]:
    __, width, exponent, reference = _DEC_HEADER.unpack_from(raw)
    if exponent >= len(_SCALES):
        raise FileFormatError(f"unsupported decimal exponent {exponent}")
    narrow = _view(raw, _width(width), num_rows, _DEC_HEADER.size)
    return _decimal_values(narrow, reference, exponent), _DEC_HEADER.size + narrow.nbytes


def _decimal_values(narrow: np.ndarray, reference: int, exponent: int) -> np.ndarray:
    """``(narrow + reference) / 10.0**exponent`` as a fresh ``float64``
    array: the one definition of what a ``DEC`` chunk holds, used by the
    reader and by the writer's proof."""
    # Widen and add into a fresh array (exact: every k is below 2**53),
    # then one in-place division.
    values = np.add(narrow, reference, dtype=np.float64)
    values /= _SCALES[exponent]
    return values


# -- strings ---------------------------------------------------------------------


def _encode_strings(values: np.ndarray) -> Tuple[bytes, ColumnStats]:
    """One pass: the distinct values give the dictionary *and* min/max."""
    items = string_items(values)
    distinct = dict.fromkeys(items)
    stats = ColumnStats(min(distinct, default=None), max(distinct, default=None))
    if 2 * len(distinct) > len(items):
        return bytes([PLAIN]) + encode_text(items), stats
    index = dict(zip(distinct, range(len(distinct))))
    dtype = _narrowest(len(distinct))
    codes = np.fromiter(map(index.__getitem__, items), dtype, count=len(items))
    header = _DICT_HEADER.pack(DICT, dtype.itemsize, len(distinct))
    return header + encode_text(list(distinct)) + codes.tobytes(), stats


def _decode_plain(type_: str, raw: bytes, num_rows: int) -> Tuple[np.ndarray, int]:
    items, end = decode_text(raw, 1, num_rows)
    return np.fromiter(items, object, count=num_rows), end


def _decode_dict(type_: str, raw: bytes, num_rows: int) -> Tuple[np.ndarray, int]:
    __, width, size = _DICT_HEADER.unpack_from(raw)
    items, end = decode_text(raw, _DICT_HEADER.size, size)
    codes = _view(raw, _width(width), num_rows, end)
    if num_rows and int(codes.max()) >= size:
        raise FileFormatError(
            f"dictionary code {int(codes.max())} outside a dictionary of {size}"
        )
    # Equal values share one ``str`` object: the dictionary entry.  The
    # codes are copied — ``raw`` may be a cache entry.
    dictionary = np.fromiter(items, object, count=size)
    return dict_array(codes.copy(), dictionary), end + codes.nbytes


def encode_text(items: List[str]) -> bytes:
    """A text block: the strings joined and UTF-8 encoded once."""
    text = "".join(items).encode("utf-8")
    lengths = np.fromiter(map(len, items), np.int64, count=len(items))
    dtype = _narrowest(int(lengths.max()) if items else 0)
    return (
        _TEXT_HEADER.pack(dtype.itemsize, len(text))
        + lengths.astype(dtype).tobytes()
        + text
    )


def decode_text(raw: bytes, offset: int, count: int) -> Tuple[List[str], int]:
    """Decode a text block of ``count`` strings at ``offset``.

    Returns the strings and the offset just past the block.  One
    ``bytes.decode``; the values are slices of its result.
    """
    width, size = _TEXT_HEADER.unpack_from(raw, offset)
    lengths = _view(raw, _width(width), count, offset + _TEXT_HEADER.size)
    start = offset + _TEXT_HEADER.size + lengths.nbytes
    if start + size > len(raw):
        raise FileFormatError(
            f"chunk truncated: {size} text bytes at byte {start} pass "
            f"its {len(raw)} bytes"
        )
    text = raw[start : start + size].decode("utf-8")
    bounds = [0, *lengths.cumsum(dtype=np.int64).tolist()]
    if bounds[-1] != len(text):
        raise FileFormatError(
            f"string lengths cover {bounds[-1]} of {len(text)} characters"
        )
    return [text[lo:hi] for lo, hi in zip(bounds, bounds[1:])], start + size


#: tag -> (decoder, the field types it may hold).
_DECODERS = {
    RAW: (_decode_raw, ("int64", "float64", "bool")),
    FOR: (_decode_for, ("int64",)),
    DICT: (_decode_dict, ("string",)),
    PLAIN: (_decode_plain, ("string",)),
    DEC: (_decode_dec, ("float64",)),
}
