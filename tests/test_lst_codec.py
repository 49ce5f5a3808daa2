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
    name="5f0c3a2e-1b7d-4c9a-8e21-0d6f4b9a7c13.rpf",
    path="internal/dw/tables/1001/data/5f0c3a2e-1b7d-4c9a-8e21-0d6f4b9a7c13.rpf",
    num_rows=250,
    size_bytes=595,
    distribution=3,
    column_stats=(("id", 3, 1995), ("bal", 100.0, 100.0)),
    checksum="crc32:891a4f33",
)
GOLDEN_ACTIONS = [
    RemoveDataFile("9a1e7c44-2b3d-4f60-a8c1-e5d2f7b40916.rpf"),
    AddDataFile(GOLDEN_FILE),
]
#: ``encode_actions(GOLDEN_ACTIONS)`` as this format writes it.
GOLDEN = bytes.fromhex(
    "82000000fceb289b95d23b0e03310804d0bba4361218b0cd71f0af4a9febc79b288a36"
    "f216692847a3376ca63a839bd3c84d0462e50e321382974630b4c799aba051da8fb207"
    "d0898d3d0ea09a575e3387322201f634a59ae7467c81d41f1f2642a437d51f715fcea8"
    "781655d35f54dea8aeff0f1cc84c0fdbeaf75b584d16f0eb6e8d8b91cb643eac9f"
)


def test_the_golden_frame_decodes():
    assert decode_manifest(GOLDEN, BLOB) == GOLDEN_ACTIONS
    [payload] = decode_frames(GOLDEN, BLOB)
    assert payload == json.dumps(
        [action.to_dict() for action in GOLDEN_ACTIONS], separators=(",", ":")
    ).encode()


def test_the_dictionary_is_pinned():
    assert (len(PRESET), zlib.crc32(PRESET)) == (519, 0xDBD2BBB0)


def test_the_dictionary_names_no_table_database_or_column():
    for name in (b"1001", b"/dw/", b'"id"', b'"bal"'):
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


guids = st.uuids().map(str)


@st.composite
def actions(draw):
    name = draw(guids) + ".rpf"
    kind = draw(st.sampled_from(["add_file", "remove_file", "add_dv", "remove_dv"]))
    if kind == "remove_file":
        return RemoveDataFile(name)
    dv_name = draw(guids) + ".rdv"
    if kind == "remove_dv":
        return RemoveDeletionVector(dv_name, name)
    if kind == "add_dv":
        return AddDeletionVector(DeletionVectorInfo(
            name=dv_name, path=f"internal/db/tables/7/dv/{dv_name}",
            target_file=name, cardinality=draw(st.integers(1, 10**6)),
            size_bytes=draw(st.integers(0, 10**6)), checksum="crc32:0a0b0c0d",
        ))
    low = draw(st.integers(-(2**40), 2**40))
    return AddDataFile(DataFileInfo(
        name=name, path=f"internal/db/tables/7/data/{name}",
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
