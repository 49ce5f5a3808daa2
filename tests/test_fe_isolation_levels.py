"""Tests for RCSI and Serializable user transactions (Section 4.4.2)."""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.common.errors import SerializationError
from repro.fe import transaction
from tests.conftest import small_config

COUNT = Aggregate(TableScan("t", ("id",)), (), {"n": ("count", None)})


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


@pytest.fixture
def dw(si_sanitizer):
    warehouse = Warehouse(config=small_config(), auto_optimize=False)
    # Every isolation-level scenario doubles as an SI-axiom check: the
    # recorded history is sanitized (repro.analysis.si) at teardown.
    si_sanitizer(warehouse)
    s = warehouse.session()
    s.create_table("t", Schema.of(("id", "int64"), ("v", "float64")),
                   distribution_column="id")
    s.insert("t", ids(10))
    return warehouse


class TestSnapshotDefault:
    def test_si_reader_pinned_to_begin(self, dw):
        reader = dw.session()
        reader.begin()
        assert reader.query(COUNT)["n"][0] == 10
        dw.session().insert("t", ids(5, start=100))
        assert reader.query(COUNT)["n"][0] == 10
        reader.commit()


class TestRcsi:
    def test_rcsi_reader_sees_new_commits(self, dw):
        reader = dw.session()
        reader.begin(isolation="rcsi")
        assert reader.query(COUNT)["n"][0] == 10
        dw.session().insert("t", ids(5, start=100))
        # RCSI: each statement sees the latest committed state.
        assert reader.query(COUNT)["n"][0] == 15
        reader.commit()

    def test_rcsi_sees_own_writes(self, dw):
        session = dw.session()
        session.begin(isolation="rcsi")
        session.insert("t", ids(3, start=50))
        assert session.query(COUNT)["n"][0] == 13
        session.commit()


class TestSerializable:
    def test_serializable_read_table_conflict(self, dw):
        """A serializable txn whose read tables changed must not commit."""
        a = dw.session()
        a.begin(isolation="serializable")
        assert a.query(COUNT)["n"][0] == 10  # registers the read
        dw.session().insert("t", ids(1, start=500))
        a.insert("t", ids(1, start=600))  # writes something, must validate
        with pytest.raises(SerializationError):
            a.commit()

    def test_serializable_commits_without_interference(self, dw):
        a = dw.session()
        a.begin(isolation="serializable")
        a.query(COUNT)
        a.insert("t", ids(1, start=700))
        a.commit()

    def test_serializable_insert_insert_still_conflicts_on_read(self, dw):
        """Two serializable insert txns that both read the table: the
        second to commit sees the first's manifest insert and aborts —
        the cost of serializability the paper warns about."""
        a, b = dw.session(), dw.session()
        a.begin(isolation="serializable")
        b.begin(isolation="serializable")
        a.query(COUNT)
        b.query(COUNT)
        a.insert("t", ids(1, start=800))
        b.insert("t", ids(1, start=900))
        a.commit()
        with pytest.raises(SerializationError):
            b.commit()


class TestDefaultFromConfig:
    def test_warehouse_default_isolation_applied(self, monkeypatch):
        monkeypatch.setattr(transaction, "DEFAULT_ISOLATION", "rcsi")
        dw = Warehouse(config=small_config(), auto_optimize=False)
        s = dw.session()
        s.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        s.insert("t", ids(1))
        reader = dw.session()
        reader.begin()  # no explicit isolation: uses the default (rcsi)
        assert reader.query(COUNT)["n"][0] == 1
        dw.session().insert("t", ids(1, start=10))
        assert reader.query(COUNT)["n"][0] == 2
        reader.commit()
