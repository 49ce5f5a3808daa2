"""Malformed manifest and checkpoint bytes raise FileFormatError naming the blob.

Both decoders read bytes from the object store; whatever those bytes are —
random, cut short, or well-formed JSON holding the wrong types — the only
exception that may escape is :class:`FileFormatError`, and its message
names the blob so an operator can find it.
"""

import json

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
    decode_manifest,
    encode_actions,
    replay,
)

MANIFEST = "internal/dw/tables/1001/_manifests/m.json"
CHECKPOINT = "internal/dw/tables/1001/_checkpoints/6.json"


def _file(name):
    return DataFileInfo(
        name=name, path=f"p/{name}", num_rows=10, size_bytes=80,
        distribution=1, column_stats=(("id", 0, 9),), checksum="crc32:00000000",
    )


ACTIONS = [
    AddDataFile(_file("a")),
    AddDataFile(_file("b")),
    AddDeletionVector(DeletionVectorInfo(
        name="d", path="p/d", target_file="a", cardinality=2, size_bytes=8,
    )),
]
GOOD_MANIFEST = encode_actions(ACTIONS)
GOOD_CHECKPOINT = Checkpoint.of(
    replay([(5, 1.0, ACTIONS), (6, 2.0, [RemoveDataFile(_file("b"))])]), 3.0
).to_bytes()


def decodes_or_names_blob(decode, data, path):
    try:
        decode(data, path)
    except FileFormatError as exc:
        assert path in str(exc)


@pytest.mark.parametrize(
    "data", [b"[1]", b'{"action":"add_file"}', b"\xff\xfe", b"{", b'{"action":"x"}']
)
def test_listed_malformed_manifests(data):
    with pytest.raises(FileFormatError, match=MANIFEST):
        decode_manifest(data, MANIFEST)


@pytest.mark.parametrize("data", [b"{}", b"null", b'{"sequence_id": 6}', b"\x80"])
def test_listed_malformed_checkpoints(data):
    with pytest.raises(FileFormatError, match=CHECKPOINT):
        Checkpoint.from_bytes(data, CHECKPOINT)


def test_checkpoint_sequence_must_match_its_snapshot():
    raw = json.loads(GOOD_CHECKPOINT)
    raw["sequence_id"] = 5
    with pytest.raises(FileFormatError, match="does not match"):
        Checkpoint.from_bytes(json.dumps(raw).encode(), CHECKPOINT)


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
    document = json.loads(document)
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
    lines[index] = json.dumps(_type_confused(data, lines[index]))
    decodes_or_names_blob(decode_manifest, "\n".join(lines).encode(), MANIFEST)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_type_confused_checkpoint(data):
    document = _type_confused(data, GOOD_CHECKPOINT)
    decodes_or_names_blob(
        Checkpoint.from_bytes, json.dumps(document).encode(), CHECKPOINT
    )
