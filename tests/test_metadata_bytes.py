"""Manifests and checkpoints say each fact once: a byte-budget guard.

A removal line names only what it retires, a checkpoint holds only the
live files and DVs (a removed file costs it nothing), and both
manifests and checkpoints are stored as frames of the deflate codec
(:mod:`repro.lst.codec`).  A statement that cancels none of its
transaction's own writes appends the blocks its tasks staged, so each
``add_file`` line is written once, and only a mixed file's line (its
rows may hash to any bucket) carries the one marker that says so.  This
guard builds small tables, writes to them and holds the written bytes to
that shape.  A "line" is one action's compact JSON inside a block's
array, read back through the codec.
"""

import json

import numpy as np

from repro import BinOp, Col, Lit, Schema, Warehouse
from repro.lst import Checkpoint
from repro.lst.checkpoint import decode_document
from repro.lst.codec import decode_frames
from repro.sqldb import system_tables as catalog
from repro.storage.object_store import ObjectStore
from tests.conftest import small_config

REMOVE_KEYS = {
    "remove_file": {"action", "name"},
    "remove_dv": {"action", "name", "target_file"},
}
#: A stored checkpoint's bytes per live file and DV it holds: one
#: descriptor deflated is about 60 B.
CHECKPOINT_PER_ENTRY = 96
#: A stored checkpoint's size as a share of its JSON document.
CHECKPOINT_DEFLATED = 0.32
#: A stored manifest's size as a share of the JSON its blocks hold.  A
#: one-action block deflated without the preset dictionary is about 0.6.
MANIFEST_DEFLATED = 0.40
#: Every key of a hash-placed file's ``add_file`` descriptor, in order.
ADD_FILE_KEYS = [
    "name", "path", "num_rows", "size_bytes", "distribution", "column_stats",
    "checksum",
]
#: The bytes a mixed file's descriptor adds to that, and all it adds.
MIXED_MARKER = b',"mixed":true'


def row(i):
    return {"id": np.array([i], dtype=np.int64), "v": np.zeros(1)}


def compact_json(value):
    return json.dumps(value, separators=(",", ":"))


def manifest_lines(data):
    """Each action of a stored manifest as the compact JSON its block
    holds: the block payloads must be exactly their actions' compact
    JSON arrays, so the returned lines are the bytes as written."""
    lines = []
    for payload in decode_frames(data, "manifest"):
        block = json.loads(payload)
        assert compact_json(block).encode() == payload, payload
        lines.extend(compact_json(action).encode() for action in block)
    return lines


def new_table():
    dw = Warehouse(config=small_config(), auto_optimize=False)
    session = dw.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    return dw, session


def table_id_of(dw):
    txn = dw.context.sqldb.begin()
    try:
        return catalog.find_table_by_name(txn, "t")["table_id"]
    finally:
        txn.abort()


def build():
    dw, session = new_table()
    for i in range(40):
        session.insert("t", row(i))
    session.insert("t", {"id": np.arange(100, 110), "v": np.zeros(10)})
    session.delete("t", BinOp("<", Col("id"), Lit(5)))
    # Two more deletes reach files that already have a DV and replace it.
    session.delete("t", BinOp("<", Col("id"), Lit(103)))
    session.delete("t", BinOp("<", Col("id"), Lit(106)))
    table_id = table_id_of(dw)
    dw.sto.run_compaction(table_id)
    dw.sto.run_checkpoint(table_id)
    return dw, table_id


def test_remove_lines_and_checkpoint_tombstones_stay_within_budget():
    """Remove lines name only what they retire; a checkpoint stays within
    a budget per live file and DV, which any record of removed files
    (tombstones) would break."""
    dw, table_id = build()
    txn = dw.context.sqldb.begin()
    try:
        manifests = catalog.manifests_for_table(txn, table_id)
        checkpoint_row = catalog.latest_checkpoint(
            txn, table_id, dw.context.sqldb.last_commit_seq
        )
    finally:
        txn.abort()

    removals = []
    for manifest in manifests:
        for line in manifest_lines(dw.store.get(manifest["manifest_path"]).data):
            action = json.loads(line)
            if action["action"] in REMOVE_KEYS:
                removals.append(action)
    assert {a["action"] for a in removals} == set(REMOVE_KEYS)
    for action in removals:
        assert set(action) == REMOVE_KEYS[action["action"]], action

    data = dw.store.get(checkpoint_row["path"]).data
    snapshot = Checkpoint.from_bytes(data).snapshot
    entries = len(snapshot.files) + len(snapshot.dvs)
    # Compaction removed far more files than it left live.
    assert 0 < entries < len(removals) / 4
    assert len(data) <= CHECKPOINT_PER_ENTRY * entries, (len(data), entries)


def test_a_stored_checkpoint_is_deflated():
    dw, table_id = build()
    txn = dw.context.sqldb.begin()
    try:
        row = catalog.latest_checkpoint(txn, table_id, dw.context.sqldb.last_commit_seq)
    finally:
        txn.abort()
    data = dw.store.get(row["path"]).data
    document = compact_json(decode_document(data))
    assert len(data) <= CHECKPOINT_DEFLATED * len(document), (len(data), len(document))


def test_a_stored_manifest_is_deflated():
    dw, table_id = build()
    txn = dw.context.sqldb.begin()
    try:
        manifests = catalog.manifests_for_table(txn, table_id)
    finally:
        txn.abort()
    assert len(manifests) > 40
    for manifest in manifests:
        data = dw.store.get(manifest["manifest_path"]).data
        inflated = sum(len(payload) for payload in decode_frames(data, "manifest"))
        assert len(data) <= MANIFEST_DEFLATED * inflated, (len(data), inflated)


def test_each_add_file_line_is_written_once(monkeypatch):
    """Transactions that insert, update and compact without cancelling
    any of their own writes stage one ``add_file`` line per data file."""
    written = {"add_file": 0, "data": 0}
    put, stage_block = ObjectStore.put, ObjectStore.stage_block

    def counted_put(self, path, data, *args, **kwargs):
        written["data"] += "/data/" in path
        return put(self, path, data, *args, **kwargs)

    def counted_stage_block(self, path, block_id, data):
        written["add_file"] += sum(
            line.startswith(b'{"action":"add_file"') for line in manifest_lines(data)
        )
        return stage_block(self, path, block_id, data)

    monkeypatch.setattr(ObjectStore, "put", counted_put)
    monkeypatch.setattr(ObjectStore, "stage_block", counted_stage_block)
    dw, session = new_table()
    for i in range(12):
        session.insert("t", row(i))
    session.update("t", BinOp("<", Col("id"), Lit(2)), {"v": Lit(1.0)})
    # One transaction inserts, then updates committed rows and rows it
    # inserted: neither update reaches a DV the transaction wrote.
    session.begin()
    session.insert("t", {"id": np.arange(100, 110), "v": np.zeros(10)})
    session.update("t", BinOp("==", Col("id"), Lit(5)), {"v": Lit(2.0)})
    session.update("t", BinOp(">=", Col("id"), Lit(107)), {"v": Lit(3.0)})
    session.commit()
    assert dw.sto.run_compaction(table_id_of(dw)).files_created
    assert written["data"] > 16
    assert written["add_file"] == written["data"], written


def test_only_mixed_files_carry_the_marker():
    dw, session = new_table()
    session.insert("t", {"id": np.arange(8), "v": np.zeros(8)})
    session.bulk_load("t", [
        {"id": np.arange(8, 20), "v": np.zeros(12)},
        {"id": np.arange(20, 30), "v": np.zeros(10)},
    ])
    txn = dw.context.sqldb.begin()
    try:
        manifests = catalog.manifests_for_table(txn, table_id_of(dw))
    finally:
        txn.abort()
    lines = [
        line
        for manifest in manifests
        for line in manifest_lines(dw.store.get(manifest["manifest_path"]).data)
        if line.startswith(b'{"action":"add_file"')
    ]
    mixed = [line for line in lines if MIXED_MARKER in line]
    assert len(lines) == 6 and len(mixed) == 2
    for line in lines:
        placed = line.replace(MIXED_MARKER, b"")
        assert len(placed) == len(line) - len(MIXED_MARKER) * (line in mixed)
        assert list(json.loads(placed)["file"]) == ADD_FILE_KEYS, line
        assert compact_json(json.loads(placed)).encode() == placed
