"""Published Delta and Iceberg metadata after every kind of removal.

A manifest's removal names only the data file or DV it retires; the
publishers take its path from the table's snapshot just before the
commit.  An external reader of either format must still see exactly the
warehouse's live rows after a DELETE replaces a DV, after a compaction
removes files that carry DVs, and after a DELETE empties a file that has
a DV — and the scrubber's rebuild of a compaction's Delta commit file
must equal what the publisher wrote.
"""

import json

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.fe.manifest_io import load_manifest_actions
from repro.lst import RemoveDataFile, RemoveDeletionVector
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.reader import PageFileReader
from repro.sqldb import system_tables as catalog
from repro.sto.delta_reader import read_published_table
from repro.sto.publisher_iceberg import read_iceberg_table
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
