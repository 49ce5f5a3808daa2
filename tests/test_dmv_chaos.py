"""The sys.dm_* views across a crash/recover cycle agree with recovery."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.chaos import ChaosController, RecoveryManager, SimulatedCrash

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def batch(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


@pytest.fixture
def loaded(config):
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    session.create_table("t", SCHEMA, distribution_column="id")
    session.insert("t", batch(0, 100))
    return dw, session


def crash_at(dw, site, thunk):
    controller = ChaosController().arm(site)
    with controller:
        with pytest.raises(SimulatedCrash):
            thunk()


def statuses(session):
    rows = session.sql("SELECT txid, status FROM sys.dm_transactions")
    return dict(zip((int(t) for t in rows["txid"]), rows["status"]))


class TestRecoveryHistoryView:
    def test_view_row_matches_recovery_report(self, loaded):
        dw, session = loaded
        crash_at(
            dw,
            "fe.commit.after_writesets",
            lambda: session.insert("t", batch(100, 50)),
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()

        probe = dw.session()
        history = probe.sql("SELECT * FROM sys.dm_recovery_history")
        assert len(history["recovery_id"]) == 1
        assert int(history["in_doubt_committed"][0]) == report.in_doubt_committed
        assert int(history["in_doubt_aborted"][0]) == report.in_doubt_aborted
        assert (
            int(history["staged_blocks_discarded"][0])
            == report.staged_blocks_discarded
        )
        assert (
            int(history["publishes_completed"][0]) == report.publishes_completed
        )
        assert report.in_doubt_aborted >= 1

    def test_each_pass_appends_one_row(self, loaded):
        dw, session = loaded
        crash_at(
            dw,
            "sqldb.commit.after_install",
            lambda: session.insert("t", batch(100, 50)),
        )
        RecoveryManager(dw.context, sto=dw.sto).recover()
        RecoveryManager(dw.context, sto=dw.sto).recover()  # idempotent rerun
        probe = dw.session()
        history = probe.sql(
            "SELECT recovery_id, in_doubt_committed "
            "FROM sys.dm_recovery_history ORDER BY recovery_id"
        )
        assert list(history["recovery_id"]) == [1, 2]
        assert int(history["in_doubt_committed"][0]) == 1
        assert int(history["in_doubt_committed"][1]) == 0  # nothing left


class TestTransactionsViewAfterCrash:
    def test_aborted_in_doubt_txn_never_shows_active(self, loaded):
        dw, session = loaded
        before = set(statuses(session))
        crash_at(
            dw,
            "fe.commit.after_writesets",
            lambda: session.insert("t", batch(100, 50)),
        )
        RecoveryManager(dw.context, sto=dw.sto).recover()

        after = statuses(dw.session())
        crashed = [txid for txid in after if txid not in before]
        assert len(crashed) == 1
        # The crashed FE never published a terminal event, but recovery
        # resolved the transaction — the view must not report it active.
        assert after[crashed[0]] == "scavenged"
        assert "active" not in after.values()

    def test_committed_in_doubt_txn_never_shows_active(self, loaded):
        dw, session = loaded
        before = set(statuses(session))
        crash_at(
            dw,
            "sqldb.commit.after_install",
            lambda: session.insert("t", batch(100, 50)),
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.in_doubt_committed == 1

        after = statuses(dw.session())
        crashed = [txid for txid in after if txid not in before]
        assert len(crashed) == 1
        assert after[crashed[0]] == "scavenged"
        assert "active" not in after.values()
        # Recovery finished the install: the write is durable.
        assert dw.session().table_snapshot("t").live_rows == 150
