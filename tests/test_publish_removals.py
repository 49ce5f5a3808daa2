"""Published Delta and Iceberg metadata after every kind of removal.

A manifest's removal names only the data file or DV it retires; the
publishers take its path from the table's snapshot just before the
commit.  An external reader of either format must still see exactly the
warehouse's live rows after a DELETE replaces a DV, after a compaction
removes files that carry DVs, and after a DELETE empties a file that has
a DV — and the scrubber's rebuild of a compaction's Delta commit file
must equal what the publisher wrote.  A multi-statement transaction
whose statements append their blocks publishes the same lines as its
reconciled manifest would, in statement order.
"""

import json

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.fe.manifest_io import load_manifest_actions
from repro.lst import (
    RemoveDataFile,
    RemoveDeletionVector,
    encode_actions,
    reconcile_actions,
)
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.reader import PageFileReader
from repro.sqldb import system_tables as catalog
from repro.sto.delta_reader import read_published_table
from repro.sto.publisher import delta_commit
from repro.sto.publisher_iceberg import IcebergPublisher, read_iceberg_table
from repro.sto.scrubber import _republish_version
from tests.conftest import small_config

TABLE_ID = 1001


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


@pytest.fixture
def dw():
    warehouse = Warehouse(config=small_config(), auto_optimize=False)
    warehouse.sto.auto_publish = True
    warehouse.sto.publish_formats = {"delta", "iceberg"}
    warehouse.session().create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    return warehouse


def external_ids(dw, files, dvs):
    """The ids an external engine reads: each published data file with
    the published DV of its name applied."""
    out = []
    for path in files:
        name = path.rsplit("/", 1)[-1]
        dv = None
        if name in dvs:
            dv = DeletionVector.from_bytes(dw.store.get(dvs[name]).data)
        reader = PageFileReader(dw.store.get(path).data)
        out.extend(reader.read(deletion_vector=dv)["id"].tolist())
    return sorted(out)


def assert_published_rows_match(dw):
    session = dw.session()
    live = sorted(session.query(TableScan("t", ("id",)))["id"].tolist())
    delta = read_published_table(dw.context, "t")
    assert external_ids(dw, delta.files, delta.deletion_vectors) == live
    files, dvs = read_iceberg_table(dw.context, "t")
    assert external_ids(dw, files, dvs) == live
    snapshot = session.table_snapshot("t")
    assert set(delta.files) == set(files) == {
        f.path for f in snapshot.files.values()
    }


def last_manifest(dw):
    txn = dw.context.sqldb.begin()
    try:
        row = catalog.latest_manifest(txn, TABLE_ID)
    finally:
        txn.abort()
    return load_manifest_actions(dw.context, row["manifest_path"])


def delta_lines(dw, version):
    record = dw.sto.publisher.published[version]
    return record.path, dw.store.get(record.path).data.decode().splitlines()


def test_every_remove_kind_publishes_the_live_rows(dw):
    session = dw.session()
    session.insert("t", ids(100))
    session.delete("t", BinOp("<", Col("id"), Lit(10)))

    # 1. A DELETE on files that already carry a DV replaces it.
    session.delete("t", BinOp("<", Col("id"), Lit(40)))
    assert any(isinstance(a, RemoveDeletionVector) for a in last_manifest(dw))
    assert_published_rows_match(dw)

    # 2. Compaction removes the files, and with them their DVs.
    dw.sto.run_compaction(TABLE_ID)
    assert any(isinstance(a, RemoveDataFile) for a in last_manifest(dw))
    compaction_version = len(dw.sto.publisher.published) - 1
    assert_published_rows_match(dw)

    # 3. A DELETE empties a file that already has a DV.
    session.insert("t", ids(5, start=1000))
    session.delete("t", BinOp("==", Col("id"), Lit(1000)))
    session.delete("t", BinOp(">=", Col("id"), Lit(1000)))
    assert any(isinstance(a, RemoveDeletionVector) for a in last_manifest(dw))
    assert_published_rows_match(dw)

    # The scrubber rebuilds the compaction's Delta file from its manifest,
    # resolving removed paths from a cold cache, byte for byte but for the
    # publish time.
    path, published = delta_lines(dw, compaction_version)
    assert any('"remove"' in line for line in published)
    txn = dw.context.sqldb.begin()
    try:
        rows = catalog.manifests_for_table(txn, TABLE_ID)
    finally:
        txn.abort()
    dw.context.cache.invalidate()
    assert _republish_version(dw.context, TABLE_ID, rows, compaction_version, path)
    __, rebuilt = delta_lines(dw, compaction_version)
    header, rebuilt_header = json.loads(published[0]), json.loads(rebuilt[0])
    del header["commitInfo"]["timestamp"], rebuilt_header["commitInfo"]["timestamp"]
    assert rebuilt_header == header
    assert rebuilt[1:] == published[1:]


def iceberg_entries(dw, record):
    """The entries of one published Iceberg snapshot's manifest, in a
    canonical order."""
    metadata = json.loads(dw.store.get(record.metadata_path).data)
    [snapshot] = [
        s for s in metadata["snapshots"] if s["snapshot-id"] == record.snapshot_id
    ]
    [ref] = json.loads(dw.store.get(snapshot["manifest-list"]).data)["manifests"]
    entries = json.loads(dw.store.get(ref["manifest_path"]).data)["entries"]
    return sorted(entries, key=lambda entry: json.dumps(entry, sort_keys=True))


def test_appended_statements_publish_the_reconciled_lines(dw):
    session = dw.session()
    session.insert("t", ids(100))
    session.delete("t", BinOp("<", Col("id"), Lit(10)))
    session.begin()
    session.insert("t", ids(5, start=1000))
    # Replaces committed DVs, then gives a file the transaction wrote its
    # first DV and adds the updated row: nothing is cancelled.
    session.delete("t", BinOp("<", Col("id"), Lit(20)))
    session.update("t", BinOp("==", Col("id"), Lit(1000)), {"v": Lit(1.0)})
    session.commit()
    assert_published_rows_match(dw)

    txn = dw.context.sqldb.begin()
    try:
        row = catalog.latest_manifest(txn, TABLE_ID)
    finally:
        txn.abort()
    actions = load_manifest_actions(dw.context, row["manifest_path"])
    net, orphans = reconcile_actions(actions)
    assert not orphans and len(net) == len(actions) and net != actions
    assert any(isinstance(a, RemoveDeletionVector) for a in actions)
    # What the transaction would have committed had it rewritten its
    # manifest after every statement.
    reconciled_path = row["manifest_path"] + ".reconciled"
    dw.store.put(reconciled_path, encode_actions(net))
    sequence_id = row["sequence_id"]

    __, published = delta_lines(dw, len(dw.sto.publisher.published) - 1)
    reconciled = delta_commit(dw.context, TABLE_ID, reconciled_path, sequence_id)
    reconciled = reconciled.decode().splitlines()
    header, reconciled_header = json.loads(published[0]), json.loads(reconciled[0])
    del header["commitInfo"]["timestamp"], reconciled_header["commitInfo"]["timestamp"]
    assert header == reconciled_header
    assert sorted(published[1:]) == sorted(reconciled[1:])

    [record] = [
        r for r in dw.sto.iceberg.published if r.snapshot_id == sequence_id
    ]
    reference = IcebergPublisher(dw.context).publish_commit(
        "reconciled", TABLE_ID, reconciled_path, sequence_id
    )
    assert iceberg_entries(dw, record) == iceberg_entries(dw, reference)
