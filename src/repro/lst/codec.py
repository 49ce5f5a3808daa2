"""The one wire codec of a table's physical metadata: deflate frames.

Manifest blocks (:mod:`repro.lst.manifest`) and checkpoints
(:mod:`repro.lst.checkpoint`) are stored as *frames*::

    uint32 length    little-endian: the bytes of deflate that follow
    uint32 crc32     of those deflate bytes
    raw deflate      (no zlib header) of the JSON, primed with PRESET

A frame says where it ends, so a manifest blob — the concatenation of
the blocks its commit-block-list names, in order (Section 3.2.2) — reads
back frame by frame, whatever blocks were committed together.

A manifest block holds one to a few actions (about 400 B of JSON), far
too little for deflate to learn the keys from.  ``PRESET`` primes every
stream with what every block spells: the action and descriptor key
templates and the file extensions.  It holds no table id, database or
column name, so one dictionary serves every table; descriptors store no
path for it to hold (:mod:`repro.lst.actions`).  It is part of the
format: a frame decodes only with the dictionary it was written with
(``tests/test_lst_codec.py`` holds a golden frame).

``WBITS`` and ``MEM_LEVEL`` are measured: on these blocks, setting the
compressor up is most of the cost.  A 2 KiB window holds the dictionary
and the last few descriptors.  A full 32 KiB one saves nothing and takes
51 µs to encode a typical block where this one takes 14 µs (DESIGN.md).

:func:`decode_frames` is strict.  A cut header, a length past the end,
a crc mismatch, a deflate stream that is corrupt, cut short or followed
by bytes inside its frame all raise :class:`FileFormatError` naming the
blob; so does plain, unframed JSON.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

from repro.common.errors import FileFormatError

#: ``length`` and ``crc32`` of the deflate bytes that follow, little-endian.
HEADER = struct.Struct("<II")
#: Window of 2**11 bytes, raw deflate (negative: no zlib header or adler).
WBITS = 11
MEM_LEVEL = 8
#: Every frame's preset dictionary.  Deflate reaches back into it, so the
#: most common template (``add_file``) sits at the end, nearest the data.
PRESET = (
    b'{"sequence_id":,"created_at":,"snapshot":{"sequence_id":,"files":[],'
    b'"dvs":[]},"table":,"mixed":true}}['
    b'{"action":"remove_dv","name":".rdv","target_file":".rpf"},'
    b'{"action":"remove_file","name":".rpf"},'
    b'{"action":"add_dv","dv":{"name":".rdv",'
    b'"target_file":".rpf","cardinality":1,"size_bytes":2,"checksum":"crc32:"}},'
    b'{"action":"add_file","file":{"name":".rpf",'
    b'"num_rows":,"size_bytes":,"distribution":,"column_stats":[["",0,],["",0.0,.0]],'
    b'"checksum":"crc32:"}}]'
)


def encode_frame(payload: bytes) -> bytes:
    """One frame holding ``payload`` deflated."""
    deflater = zlib.compressobj(
        zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -WBITS, MEM_LEVEL,
        zlib.Z_DEFAULT_STRATEGY, PRESET,
    )
    body = deflater.compress(payload) + deflater.flush()
    return HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_frames(data: bytes, what: str) -> List[bytes]:
    """The payload of every frame in ``data``, in order (none for no bytes).

    Anything but whole, intact frames back to back raises
    :class:`FileFormatError` ("corrupt ``what``").
    """
    payloads = []
    at, end = 0, len(data)
    while at < end:
        if end - at < HEADER.size:
            raise FileFormatError(
                f"corrupt {what} ({end - at} bytes after the last frame, at byte {at})"
            )
        length, crc = HEADER.unpack_from(data, at)
        start = at + HEADER.size
        if start + length > end:
            raise FileFormatError(
                f"corrupt {what} (frame at byte {at} holds {length} bytes, "
                f"{end - start} remain)"
            )
        body = data[start : start + length]
        if zlib.crc32(body) != crc:
            raise FileFormatError(
                f"corrupt {what} (crc32 mismatch in the frame at byte {at})"
            )
        inflater = zlib.decompressobj(-WBITS, zdict=PRESET)
        try:
            payload = inflater.decompress(body)
        except zlib.error as exc:
            raise FileFormatError(f"corrupt {what} ({exc})") from None
        if not inflater.eof:
            raise FileFormatError(f"corrupt {what} (truncated deflate stream)")
        if inflater.unused_data:
            raise FileFormatError(
                f"corrupt {what} ({len(inflater.unused_data)} bytes after the "
                "deflate stream inside its frame)"
            )
        payloads.append(payload)
        at = start + length
    return payloads
