"""Manifests and checkpoints say each fact once: a byte-budget guard.

A removal line names only what it retires, and a checkpoint writes each
tombstone as its path inside one group per removing commit.  This guard
builds a table of one-row inserts, deletes from it, compacts and
checkpoints, then holds the committed bytes to that shape.
"""

import json

import numpy as np

from repro import BinOp, Col, Lit, Schema, Warehouse
from repro.lst import Checkpoint
from repro.sqldb import system_tables as catalog
from tests.conftest import small_config

REMOVE_KEYS = {
    "remove_file": {"action", "name"},
    "remove_dv": {"action", "name", "target_file"},
}
#: One tombstone's share of a group: its JSON string and a comma.
PER_TOMBSTONE = 3


def row(i):
    return {"id": np.array([i], dtype=np.int64), "v": np.zeros(1)}


def compact_json(value):
    return json.dumps(value, separators=(",", ":"))


def build():
    dw = Warehouse(config=small_config(), auto_optimize=False)
    session = dw.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    for i in range(40):
        session.insert("t", row(i))
    session.insert("t", {"id": np.arange(100, 110), "v": np.zeros(10)})
    session.delete("t", BinOp("<", Col("id"), Lit(5)))
    # Two more deletes reach files that already have a DV and replace it.
    session.delete("t", BinOp("<", Col("id"), Lit(103)))
    session.delete("t", BinOp("<", Col("id"), Lit(106)))
    txn = dw.context.sqldb.begin()
    try:
        table_id = catalog.find_table_by_name(txn, "t")["table_id"]
    finally:
        txn.abort()
    dw.sto.run_compaction(table_id)
    dw.sto.run_checkpoint(table_id)
    return dw, table_id


def test_remove_lines_and_checkpoint_tombstones_stay_within_budget():
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
        for line in dw.store.get(manifest["manifest_path"]).data.splitlines():
            action = json.loads(line)
            if action["action"] in REMOVE_KEYS:
                removals.append(action)
    assert {a["action"] for a in removals} == set(REMOVE_KEYS)
    for action in removals:
        assert set(action) == REMOVE_KEYS[action["action"]], action

    data = dw.store.get(checkpoint_row["path"]).data
    tombstones = Checkpoint.from_bytes(data).snapshot.tombstones
    assert len(tombstones) > 40
    commits = {(t.removed_seq, t.removed_at) for t in tombstones}
    headers = sum(
        len(compact_json(
            {"removed_at": at, "removed_seq": seq, "data": [], "dv": []}
        )) + 1
        for seq, at in commits
    )
    budget = 2 + headers + sum(len(t.path) + PER_TOMBSTONE for t in tombstones)
    section = compact_json(json.loads(data)["snapshot"]["tombstones"])
    assert len(section) <= budget, (len(section), budget)
