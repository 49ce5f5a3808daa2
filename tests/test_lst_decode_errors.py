"""Malformed manifest and checkpoint bytes raise FileFormatError naming the blob.

Both decoders read bytes from the object store; whatever those bytes are —
random, cut short, a broken frame, or well-formed JSON holding the
wrong types — the only exception that may escape is
:class:`FileFormatError`, and its message names the blob so an operator
can find it.  Both are frames of one codec (:mod:`repro.lst.codec`), so
the JSON-level cases build their bytes with it: a manifest block is one
frame holding a JSON array of actions, a checkpoint one frame holding
its document (:func:`~repro.lst.checkpoint.encode_document` /
:func:`~repro.lst.checkpoint.decode_document`).
"""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FileFormatError
from repro.lst import (
    AddDataFile,
    AddDeletionVector,
    Checkpoint,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
    decode_manifest,
    encode_actions,
    replay,
)
from repro.lst.checkpoint import decode_document, encode_document
from repro.lst.codec import HEADER, decode_frames, encode_frame
from repro.storage import paths

MANIFEST = "internal/dw/tables/1001/_manifests/m.json"
CHECKPOINT = "internal/dw/tables/1001/_checkpoints/6.json"


def _file(name):
    return DataFileInfo(
        name=name, path=paths.data_file_path("dw", 1001, name), num_rows=10, size_bytes=80,
        distribution=1, column_stats=(("id", 0, 9),), checksum="crc32:00000000",
    )


def _dv(name, target):
    return DeletionVectorInfo(
        name=name, path=paths.dv_file_path("dw", 1001, name), target_file=target, cardinality=2,
        size_bytes=8, checksum="crc32:00000000",
    )


ACTIONS = [
    AddDataFile(_file("a")),
    AddDataFile(_file("b")),
    AddDataFile(_file("c")),
    AddDeletionVector(_dv("d", "a")),
    AddDeletionVector(_dv("e", "c")),
    AddDeletionVector(_dv("g", "b")),
]
#: Removes every kind of thing: a data file with a DV, a DV alone.
REMOVALS = [RemoveDataFile("a"), RemoveDeletionVector("e", "c")]
BASE = replay([(5, 1.0, ACTIONS)])
GOOD_MANIFEST = encode_actions(ACTIONS)
GOOD_REMOVALS = encode_actions(REMOVALS)
GOOD_CHECKPOINT = Checkpoint.of(
    replay([(6, 2.0, REMOVALS)], base=BASE), 3.0
).to_bytes(CHECKPOINT)


def block_of(data):
    """The JSON array of actions in a one-block manifest."""
    [payload] = decode_frames(data, MANIFEST)
    return json.loads(payload)


def framed(value):
    """One frame holding ``value`` as JSON."""
    return encode_frame(json.dumps(value).encode())


def decodes_or_names_blob(decode, data, path):
    try:
        decode(data, path)
    except FileFormatError as exc:
        assert path in str(exc)


@pytest.mark.parametrize(
    "data",
    [
        b"[1]", b'{"action":"add_file"}', b"\xff\xfe", b"{", b'{"action":"x"}',
        b'{"action":"remove_file"}',
        b'{"action":"remove_file","name":{"x":1}}',
        b'{"action":"remove_file","name":["a"]}',
        b'{"action":"remove_file","name":7}',
        b'{"action":"remove_dv","name":"e"}',
        b'{"action":"remove_dv","name":"e","target_file":["c"]}',
        b'{"action":"remove_dv","name":null,"target_file":"c"}',
    ],
)
def test_listed_malformed_manifests(data):
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(encode_frame(b"[" + data + b"]"), MANIFEST)


@pytest.mark.parametrize(
    "payload",
    [b'{"action":"remove_file","name":"a"}', b'"a"', b"null", b"", b"[]]"],
)
def test_a_block_that_is_not_one_array_of_actions_is_rejected(payload):
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(encode_frame(payload), MANIFEST)


@pytest.mark.parametrize("data", [b"{}", b"null", b'{"sequence_id": 6}', b"\x80"])
def test_listed_malformed_checkpoints(data):
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(encode_frame(data), CHECKPOINT)


def _flip_a_byte(data):
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x55]) + data[middle + 1 :]


def _with_body(good, body):
    """``good``'s one frame with its deflate bytes replaced by ``body``,
    length and crc32 made to match, so only the deflate stream is wrong."""
    return HEADER.pack(len(body), zlib.crc32(body)) + body


#: Every way a frame can be malformed, for a blob holding one frame.
MALFORMED_FRAMES = [
    pytest.param(lambda good: good[: HEADER.size - 3], id="truncated-header"),
    pytest.param(lambda good: good + good[:5], id="second-header-cut"),
    pytest.param(lambda good: good[:-1], id="length-past-the-end"),
    pytest.param(
        lambda good: good[:4] + bytes([good[4] ^ 1]) + good[5:], id="crc-mismatch"
    ),
    pytest.param(_flip_a_byte, id="flipped-byte"),
    pytest.param(lambda good: good + b"JUNK", id="trailing-bytes"),
    pytest.param(lambda good: good + bytes(HEADER.size), id="trailing-empty-frame"),
    pytest.param(
        lambda good: _with_body(good, good[HEADER.size : -3]), id="cut-deflate-stream"
    ),
    pytest.param(
        lambda good: _with_body(good, good[HEADER.size :] + b"xy"),
        id="bytes-after-the-stream",
    ),
    pytest.param(lambda good: _with_body(good, b"\xff" * 9), id="corrupt-deflate"),
]


@pytest.mark.parametrize("frame", MALFORMED_FRAMES)
def test_malformed_manifest_frames(frame):
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(frame(GOOD_MANIFEST), MANIFEST)
    # The second of two blocks is checked as strictly as the first.
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(GOOD_REMOVALS + frame(GOOD_MANIFEST), MANIFEST)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            lambda: "".join(json.dumps(a) + "\n" for a in block_of(GOOD_MANIFEST)),
            id="json-lines",
        ),
        pytest.param(lambda: json.dumps(block_of(GOOD_MANIFEST)), id="json-array"),
        pytest.param(lambda: "\n", id="a-newline"),
    ],
)
def test_an_unframed_json_manifest_is_rejected(text):
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(text().encode(), MANIFEST)


@pytest.mark.parametrize(
    "frame",
    [
        pytest.param(
            lambda good: json.dumps(decode_document(good)).encode(),
            id="uncompressed-json",
        ),
        pytest.param(lambda good: good[:-4], id="truncated-stream"),
        pytest.param(lambda good: good + good, id="two-frames"),
        pytest.param(lambda good: b"", id="no-frame"),
        *MALFORMED_FRAMES,
    ],
)
def test_malformed_checkpoint_frames(frame):
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(frame(GOOD_CHECKPOINT), CHECKPOINT)


#: One removing commit's group as the tombstone format wrote it.
OLD_GROUP = {"removed_at": 2.0, "removed_seq": 6, "data": ["p/a"], "dv": ["p/d", "p/e"]}


def _group_with(key, value):
    """GOOD_CHECKPOINT in the tombstone format: one group, ``key`` set to
    ``value``."""
    raw = decode_document(GOOD_CHECKPOINT)
    raw["snapshot"]["tombstones"] = [dict(OLD_GROUP, **{key: value})]
    return encode_document(raw)


def test_a_checkpoint_with_a_tombstones_key_is_rejected():
    raw = decode_document(GOOD_CHECKPOINT)
    assert set(raw["snapshot"]) == {"sequence_id", "files", "dvs"}
    raw["snapshot"]["tombstones"] = [OLD_GROUP]
    with pytest.raises(FileFormatError, match=f"{CHECKPOINT}.*tombstones"):
        Checkpoint.from_bytes(encode_document(raw), CHECKPOINT)
    raw["snapshot"]["tombstones"] = []
    with pytest.raises(FileFormatError, match=f"{CHECKPOINT}.*tombstones"):
        Checkpoint.from_bytes(encode_document(raw), CHECKPOINT)


@pytest.mark.parametrize(
    "key, value",
    [
        ("removed_seq", "6"), ("removed_seq", 6.0), ("removed_seq", True),
        ("removed_seq", None), ("removed_at", "2"), ("removed_at", None),
        ("removed_at", False), ("removed_at", [2.0]), ("data", "p/a"),
        ("data", [1]), ("data", {"p/a": 1}), ("dv", [None]), ("dv", [["p/d"]]),
    ],
)
def test_listed_malformed_tombstone_groups(key, value):
    """A checkpoint in the tombstone format is rejected, never half-read,
    whatever its groups hold."""
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(_group_with(key, value), CHECKPOINT)


@pytest.mark.parametrize("key", ["checksum", "column_stats"])
def test_data_file_descriptor_missing_a_key_is_rejected(key):
    [line] = block_of(encode_actions([ACTIONS[0]]))
    del line["file"][key]
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(framed([line]), MANIFEST)
    raw = decode_document(GOOD_CHECKPOINT)
    del raw["snapshot"]["files"][0][key]
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(encode_document(raw), CHECKPOINT)


@pytest.mark.parametrize("value", [False, 1, "true", None])
def test_a_mixed_marker_other_than_true_is_rejected(value):
    [line] = block_of(encode_actions([ACTIONS[0]]))
    line["file"]["mixed"] = value
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(framed([line]), MANIFEST)
    line["file"]["mixed"] = True
    (action,) = decode_manifest(framed([line]), MANIFEST)
    assert action.file.mixed and action.file.to_dict() == line["file"]


@pytest.mark.parametrize("kind, line", [("file", 0), ("dv", 3)])
def test_a_descriptor_that_stores_a_path_is_rejected(kind, line):
    [raw] = block_of(encode_actions([ACTIONS[line]]))
    raw[kind]["path"] = getattr(ACTIONS[line], kind).path
    with pytest.raises(FileFormatError, match=f"{MANIFEST}.*path"):
        decode_manifest(framed([raw]), MANIFEST)
    document = decode_document(GOOD_CHECKPOINT)
    entry = document["snapshot"][kind + "s"][0]
    entry["path"] = paths.data_file_path("dw", 1001, entry["name"])
    with pytest.raises(FileFormatError, match=f"{CHECKPOINT}.*path"):
        Checkpoint.from_bytes(encode_document(document), CHECKPOINT)


def test_a_file_of_another_table_is_named_by_its_table():
    """A clone's checkpoint names the owner of each inherited file; the
    path derives from that table's root, and the own id is never written."""
    inherited = DataFileInfo(
        name="a", path=paths.data_file_path("dw", 1001, "a"), num_rows=1,
        size_bytes=8, distribution=0,
    )
    own_dv = DeletionVectorInfo(
        name="d", path=paths.dv_file_path("dw", 1002, "d"), target_file="a",
        cardinality=1, size_bytes=8,
    )
    clone = replay([(4, 1.0, [AddDataFile(inherited), AddDeletionVector(own_dv)])])
    at = "internal/dw/tables/1002/_checkpoints/4.json"
    data = Checkpoint.of(clone, 0.0).to_bytes(at)
    document = decode_document(data)
    [file], [dv] = document["snapshot"]["files"], document["snapshot"]["dvs"]
    assert file["table"] == 1001 and "table" not in dv
    assert Checkpoint.from_bytes(data, at).snapshot == clone
    file["table"] = 1002
    with pytest.raises(FileFormatError, match=at):
        Checkpoint.from_bytes(encode_document(document), at)


def test_dv_descriptor_missing_its_checksum_is_rejected():
    [line] = block_of(encode_actions([ACTIONS[3]]))
    del line["dv"]["checksum"]
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(framed([line]), MANIFEST)
    raw = decode_document(GOOD_CHECKPOINT)
    del raw["snapshot"]["dvs"][0]["checksum"]
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(encode_document(raw), CHECKPOINT)


def test_checkpoint_sequence_must_match_its_snapshot():
    raw = decode_document(GOOD_CHECKPOINT)
    raw["sequence_id"] = 5
    with pytest.raises(FileFormatError, match="does not match"):
        Checkpoint.from_bytes(encode_document(raw), CHECKPOINT)


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_random_bytes(data):
    decodes_or_names_blob(decode_manifest, data, MANIFEST)
    decodes_or_names_blob(Checkpoint.from_bytes, data, CHECKPOINT)


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_random_bytes_in_a_whole_frame(data):
    decodes_or_names_blob(decode_manifest, encode_frame(data), MANIFEST)
    decodes_or_names_blob(Checkpoint.from_bytes, encode_frame(data), CHECKPOINT)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_bytes(data):
    cut = data.draw(st.integers(min_value=0, max_value=len(GOOD_MANIFEST)))
    decodes_or_names_blob(decode_manifest, GOOD_MANIFEST[:cut], MANIFEST)
    cut = data.draw(st.integers(min_value=0, max_value=len(GOOD_CHECKPOINT)))
    decodes_or_names_blob(Checkpoint.from_bytes, GOOD_CHECKPOINT[:cut], CHECKPOINT)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _slots(node):
    """Every (container, key) position inside a decoded JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _type_confused(data, document):
    """``document`` with one value anywhere inside it replaced or deleted."""
    slots = list(_slots(document))
    container, key = data.draw(st.sampled_from(slots))
    if data.draw(st.booleans()) or isinstance(container, list):
        container[key] = data.draw(json_values)
    else:
        del container[key]
    return document


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_type_confused_manifest(data):
    lines = block_of(GOOD_MANIFEST)
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    lines[index] = _type_confused(data, lines[index])
    decodes_or_names_blob(decode_manifest, framed(lines), MANIFEST)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_type_confused_checkpoint(data):
    document = _type_confused(data, decode_document(GOOD_CHECKPOINT))
    decodes_or_names_blob(Checkpoint.from_bytes, encode_document(document), CHECKPOINT)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_type_confused_removals_fail_decode_or_replay_cleanly(data):
    """A removal that decodes must replay onto a table holding files and
    DVs without any error but :class:`FileFormatError`."""
    lines = block_of(GOOD_REMOVALS)
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    lines[index] = _type_confused(data, lines[index])
    try:
        actions = decode_manifest(framed(lines), MANIFEST)
    except FileFormatError as exc:
        assert MANIFEST in str(exc)
        return
    try:
        BASE.apply_manifest(actions, 6)
    except FileFormatError:
        pass
