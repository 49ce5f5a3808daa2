"""Malformed manifest and checkpoint bytes raise FileFormatError naming the blob.

Both decoders read bytes from the object store; whatever those bytes are —
random, cut short, a broken zlib frame, or well-formed JSON holding the
wrong types — the only exception that may escape is
:class:`FileFormatError`, and its message names the blob so an operator
can find it.  A checkpoint is its JSON document deflated, so the
document-level cases go through the checkpoint codec
(:func:`~repro.lst.checkpoint.encode_document` /
:func:`~repro.lst.checkpoint.decode_document`).
"""

import json
import math
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

MANIFEST = "internal/dw/tables/1001/_manifests/m.json"
CHECKPOINT = "internal/dw/tables/1001/_checkpoints/6.json"


def _file(name):
    return DataFileInfo(
        name=name, path=f"p/{name}", num_rows=10, size_bytes=80,
        distribution=1, column_stats=(("id", 0, 9),), checksum="crc32:00000000",
    )


def _dv(name, target):
    return DeletionVectorInfo(
        name=name, path=f"p/{name}", target_file=target, cardinality=2,
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
GOOD_CHECKPOINT = Checkpoint.of(replay([(6, 2.0, REMOVALS)], base=BASE), 3.0).to_bytes()


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
        decode_manifest(data, MANIFEST)


@pytest.mark.parametrize("data", [b"{}", b"null", b'{"sequence_id": 6}', b"\x80"])
def test_listed_malformed_checkpoints(data):
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(zlib.compress(data), CHECKPOINT)


def _flip_a_byte(data):
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x55]) + data[middle + 1 :]


@pytest.mark.parametrize(
    "frame",
    [
        pytest.param(
            lambda good: json.dumps(decode_document(good)).encode(),
            id="uncompressed-json",
        ),
        pytest.param(lambda good: good[:-4], id="truncated-stream"),
        pytest.param(lambda good: good + b"JUNK", id="trailing-bytes"),
        pytest.param(_flip_a_byte, id="flipped-byte"),
    ],
)
def test_malformed_checkpoint_frames(frame):
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(frame(GOOD_CHECKPOINT), CHECKPOINT)


def _group_with(key, value):
    raw = decode_document(GOOD_CHECKPOINT)
    [group] = raw["snapshot"]["tombstones"]
    group[key] = value
    return encode_document(raw)


def test_checkpoint_groups_tombstones_by_commit():
    [group] = decode_document(GOOD_CHECKPOINT)["snapshot"]["tombstones"]
    assert group == {
        "removed_at": 2.0, "removed_seq": 6, "data": ["p/a"], "dv": ["p/d", "p/e"]
    }


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
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(_group_with(key, value), CHECKPOINT)


@pytest.mark.parametrize("key", ["checksum", "column_stats"])
def test_data_file_descriptor_missing_a_key_is_rejected(key):
    line = json.loads(encode_actions([ACTIONS[0]]))
    del line["file"][key]
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(json.dumps(line).encode(), MANIFEST)
    raw = decode_document(GOOD_CHECKPOINT)
    del raw["snapshot"]["files"][0][key]
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(encode_document(raw), CHECKPOINT)


@pytest.mark.parametrize("value", [False, 1, "true", None])
def test_a_mixed_marker_other_than_true_is_rejected(value):
    line = json.loads(encode_actions([ACTIONS[0]]))
    line["file"]["mixed"] = value
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(json.dumps(line).encode(), MANIFEST)
    line["file"]["mixed"] = True
    (action,) = decode_manifest(json.dumps(line).encode(), MANIFEST)
    assert action.file.mixed and action.file.to_dict() == line["file"]


def test_dv_descriptor_missing_its_checksum_is_rejected():
    line = json.loads(encode_actions([ACTIONS[3]]))
    del line["dv"]["checksum"]
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(json.dumps(line).encode(), MANIFEST)
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
    lines = GOOD_MANIFEST.decode().splitlines()
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    lines[index] = json.dumps(_type_confused(data, json.loads(lines[index])))
    decodes_or_names_blob(decode_manifest, "\n".join(lines).encode(), MANIFEST)


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
    lines = GOOD_REMOVALS.decode().splitlines()
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    lines[index] = json.dumps(_type_confused(data, json.loads(lines[index])))
    try:
        actions = decode_manifest("\n".join(lines).encode(), MANIFEST)
    except FileFormatError as exc:
        assert MANIFEST in str(exc)
        return
    try:
        BASE.apply_manifest(actions, 6, 2.0, math.inf)
    except FileFormatError:
        pass
