"""The metadata frame codec: blocks concatenate, damage is caught, the
format is pinned.

A manifest blob is whatever blocks its commit-block-list named, back to
back, so any concatenation of encoded blocks — empty ones included —
must decode to the concatenation of their actions.  Every single-byte
flip of such a blob must raise :class:`FileFormatError` (the frame's
crc32 covers its deflate bytes, the length its extent), and a cut one
either ends on a frame boundary and decodes to the blocks before it, or
raises :class:`FileFormatError`.

The preset dictionary is part of the format: ``GOLDEN`` is a block
written by this codec and committed here, so a change to the dictionary,
the window or the frame layout that would strand stored manifests fails.
"""

import json
import zlib
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FileFormatError
from repro.lst import (
    AddDataFile,
    AddDeletionVector,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
    decode_manifest,
    encode_actions,
)
from repro.lst.codec import HEADER, PRESET, decode_frames

BLOB = "internal/dw/tables/1001/_manifests/golden.json"

GOLDEN_FILE = DataFileInfo(
    name="186b3.4.rpf",
    path="internal/dw/tables/1001/data/186b3.4.rpf",
    num_rows=250,
    size_bytes=595,
    distribution=3,
    column_stats=(("id", 3, 1995), ("bal", 100.0, 100.0)),
    checksum="crc32:891a4f33",
)
GOLDEN_ACTIONS = [
    RemoveDataFile("186a9.0.rpf"),
    AddDataFile(GOLDEN_FILE),
]
#: ``encode_actions(GOLDEN_ACTIONS)`` as this format writes it.
GOLDEN = bytes.fromhex(
    "4d0000001e668893c312c4a8016568619668a967803dbcb03b1fa825c958cf04c31746"
    "a606a81e31b53445f78b3116cf00d38d8eb18ea1a5a529c84b4989394a3a8606207f81"
    "49ac5eb3b0344c3449333606791100"
)


def test_the_golden_frame_decodes():
    assert decode_manifest(GOLDEN, BLOB) == GOLDEN_ACTIONS
    [payload] = decode_frames(GOLDEN, BLOB)
    assert payload == json.dumps(
        [action.to_dict() for action in GOLDEN_ACTIONS], separators=(",", ":")
    ).encode()


def test_the_dictionary_is_pinned():
    assert (len(PRESET), zlib.crc32(PRESET)) == (456, 0xAB126B62)


def test_the_dictionary_names_no_table_database_or_column():
    for name in (b"1001", b"/dw/", b'"id"', b'"bal"', b"path", b"internal/"):
        assert name not in PRESET


def test_a_frame_does_not_inflate_without_the_dictionary():
    body = GOLDEN[HEADER.size :]
    try:
        inflated = zlib.decompressobj(-11).decompress(body)
    except zlib.error:
        return
    assert inflated != decode_frames(GOLDEN, BLOB)[0]


def test_no_bytes_are_no_frames():
    assert decode_frames(b"", BLOB) == []
    assert decode_manifest(b"", BLOB) == []


names = st.builds(
    lambda txid, n: f"{txid:x}.{n:x}", st.integers(100_000, 2**40), st.integers(0, 2**20)
)


@st.composite
def actions(draw):
    name = draw(names) + ".rpf"
    kind = draw(st.sampled_from(["add_file", "remove_file", "add_dv", "remove_dv"]))
    if kind == "remove_file":
        return RemoveDataFile(name)
    dv_name = draw(names) + ".rdv"
    if kind == "remove_dv":
        return RemoveDeletionVector(dv_name, name)
    if kind == "add_dv":
        return AddDeletionVector(DeletionVectorInfo(
            name=dv_name, path=f"internal/dw/tables/1001/dv/{dv_name}",
            target_file=name, cardinality=draw(st.integers(1, 10**6)),
            size_bytes=draw(st.integers(0, 10**6)), checksum="crc32:0a0b0c0d",
        ))
    low = draw(st.integers(-(2**40), 2**40))
    return AddDataFile(DataFileInfo(
        name=name, path=f"internal/dw/tables/1001/data/{name}",
        num_rows=draw(st.integers(0, 10**6)), size_bytes=draw(st.integers(0, 10**9)),
        distribution=draw(st.integers(-1, 63)),
        column_stats=(("k", low, low + draw(st.integers(0, 100))),
                      ("s", "", draw(st.text(max_size=8)))),
        checksum="crc32:" + draw(st.text("0123456789abcdef", min_size=8, max_size=8)),
        mixed=draw(st.booleans()),
    ))


blocks = st.lists(st.lists(actions(), max_size=4), max_size=5)


@given(blocks)
@settings(max_examples=100, deadline=None)
def test_any_concatenation_of_blocks_decodes_to_their_actions(blocks):
    data = b"".join(encode_actions(block) for block in blocks)
    assert decode_manifest(data, BLOB) == [a for block in blocks for a in block]


@given(blocks, st.data())
@settings(max_examples=200, deadline=None)
def test_a_flipped_byte_is_always_caught(blocks, data):
    blob = b"".join(encode_actions(block) for block in blocks)
    if not blob:
        return
    at = data.draw(st.integers(0, len(blob) - 1))
    flip = data.draw(st.integers(1, 255))
    damaged = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1 :]
    with pytest.raises(FileFormatError, match=BLOB):
        decode_manifest(damaged, BLOB)


@given(blocks, st.data())
@settings(max_examples=200, deadline=None)
def test_a_cut_blob_decodes_only_on_a_frame_boundary(blocks, data):
    encoded = [encode_actions(block) for block in blocks]
    blob = b"".join(encoded)
    cut = data.draw(st.integers(0, len(blob)))
    ends = list(accumulate(len(frame) for frame in encoded))
    try:
        decoded = decode_manifest(blob[:cut], BLOB)
    except FileFormatError as exc:
        assert BLOB in str(exc) and cut not in [0, *ends]
        return
    assert cut in [0, *ends]
    assert decoded == [a for end, block in zip(ends, blocks) if end <= cut for a in block]
