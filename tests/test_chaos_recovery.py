"""Tests for the restart RecoveryManager over injected-crash states."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.chaos import (
    ChaosController,
    RecoveryError,
    RecoveryManager,
    SimulatedCrash,
)
from repro.chaos.harness import RECOVERY_SITES, _recover_with_crashes
from repro.service import Gateway
from repro.sql.runner import SqlSession
from repro.sqldb import system_tables as catalog
from repro.telemetry import fingerprint
from repro.storage import paths

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def batch(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


@pytest.fixture
def dw(config):
    wh = Warehouse(config=config, auto_optimize=False)
    wh.sto.auto_publish = True
    return wh


@pytest.fixture
def loaded(dw):
    session = dw.session()
    table_id = session.create_table("t", SCHEMA, distribution_column="id")
    session.insert("t", batch(0, 100))
    return dw, session, table_id


@pytest.fixture
def collecting(config):
    """A loaded warehouse with both scavengeable collectors enabled."""
    config.telemetry.query_store_enabled = True
    config.telemetry.wait_stats_enabled = True
    wh = Warehouse(config=config, auto_optimize=False)
    wh.sto.auto_publish = True
    session = wh.session()
    session.create_table("t", SCHEMA, distribution_column="id")
    session.insert("t", batch(0, 100))
    return wh, session


def crash_at(dw, site, thunk, hits=1):
    """Run ``thunk`` with ``site`` armed; assert the crash fired."""
    controller = ChaosController().arm(site, hits=hits)
    with controller:
        with pytest.raises(SimulatedCrash):
            thunk()
    return controller


class TestInDoubtResolution:
    def test_crash_before_sqldb_commit_aborts(self, loaded):
        dw, session, _ = loaded
        crash_at(
            dw,
            "fe.commit.after_writesets",
            lambda: session.insert("t", batch(100, 50)),
        )
        assert dw.context.sqldb.active_transactions
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.in_doubt_aborted >= 1
        assert report.in_doubt_committed == 0
        assert not dw.context.sqldb.active_transactions
        assert dw.session().table_snapshot("t").live_rows == 100

    def test_crash_after_install_commits(self, loaded):
        dw, session, _ = loaded
        crash_at(
            dw,
            "sqldb.commit.after_install",
            lambda: session.insert("t", batch(100, 50)),
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.in_doubt_committed == 1
        assert not dw.context.sqldb.active_transactions
        assert dw.session().table_snapshot("t").live_rows == 150

    def test_crash_after_sqldb_commit_loses_nothing(self, loaded):
        dw, session, _ = loaded
        crash_at(
            dw,
            "fe.commit.after_sqldb_commit",
            lambda: session.insert("t", batch(100, 50)),
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.in_doubt_aborted == 0
        assert dw.session().table_snapshot("t").live_rows == 150
        assert report.publishes_completed >= 1


class TestStagedBlocks:
    def test_staged_blocks_discarded(self, loaded):
        dw, session, _ = loaded
        crash_at(
            dw,
            "fe.write.before_manifest_flush",
            lambda: session.insert("t", batch(100, 50)),
        )
        assert dw.store.staged_paths()
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.staged_blocks_discarded >= 1
        assert not dw.store.staged_paths()


class TestCheckpointReconciliation:
    def test_orphan_checkpoint_blob_deleted_and_rerun_succeeds(self, loaded):
        dw, session, table_id = loaded
        crash_at(
            dw,
            "sto.checkpoint.after_blob_put",
            lambda: dw.sto.run_checkpoint(table_id),
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert len(report.orphan_checkpoint_blobs_deleted) == 1
        # The deterministic path is free again: the checkpoint re-runs.
        result = dw.sto.run_checkpoint(table_id)
        assert result is not None

    def test_checkpoint_row_without_blob_dropped(self, loaded):
        dw, session, table_id = loaded
        result = dw.sto.run_checkpoint(table_id)
        dw.store.delete(result.path)
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.checkpoint_rows_dropped == [result.path]
        txn = dw.context.sqldb.begin()
        try:
            assert not catalog.checkpoints_for_table(txn, table_id)
        finally:
            txn.abort()


class TestPublishCompletion:
    def test_missed_publish_completed(self, loaded):
        dw, session, _ = loaded
        crash_at(
            dw,
            "sto.publish.before_log_write",
            lambda: session.insert("t", batch(100, 50)),
        )
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.publishes_completed >= 1
        log_prefix = paths.published_root(dw.context.database, "t") + "/_delta_log/"
        versions = [blob.path for blob in dw.store.list(log_prefix)]
        assert len(versions) == 2  # the original load plus the recovered one

    def test_publish_versions_continue_after_resync(self, loaded):
        dw, session, _ = loaded
        crash_at(
            dw,
            "sto.publish.after_log_write",
            lambda: session.insert("t", batch(100, 50)),
        )
        RecoveryManager(dw.context, sto=dw.sto).recover()
        session2 = dw.session()
        session2.insert("t", batch(200, 10))
        log_prefix = paths.published_root(dw.context.database, "t") + "/_delta_log/"
        names = sorted(
            blob.path.rsplit("/", 1)[1] for blob in dw.store.list(log_prefix)
        )
        versions = [int(name.split(".", 1)[0]) for name in names]
        assert versions == list(range(len(versions)))


class TestStrictMode:
    def test_missing_manifest_raises_in_strict_mode(self, loaded):
        dw, session, table_id = loaded
        txn = dw.context.sqldb.begin()
        try:
            rows = catalog.manifests_for_table(txn, table_id)
        finally:
            txn.abort()
        dw.store.delete(rows[-1]["manifest_path"])
        with pytest.raises(RecoveryError):
            RecoveryManager(dw.context, sto=dw.sto).recover()

    def test_missing_manifest_reported_when_lenient(self, loaded):
        dw, session, table_id = loaded
        txn = dw.context.sqldb.begin()
        try:
            rows = catalog.manifests_for_table(txn, table_id)
        finally:
            txn.abort()
        dw.store.delete(rows[-1]["manifest_path"])
        report = RecoveryManager(dw.context, sto=dw.sto, strict=False).recover()
        assert report.missing_manifests == [rows[-1]["manifest_path"]]


class TestIdempotence:
    def test_second_recovery_is_clean(self, loaded):
        dw, session, _ = loaded
        crash_at(
            dw,
            "fe.write.before_manifest_flush",
            lambda: session.insert("t", batch(100, 50)),
        )
        RecoveryManager(dw.context, sto=dw.sto).recover()
        second = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert second.clean

    def test_second_recovery_is_a_byte_level_noop(self, loaded):
        """The baseline for crash-re-entrant recovery: running a second
        pass over an already-recovered deployment repairs nothing and
        leaves every stored blob byte-identical."""
        dw, session, table_id = loaded
        crash_at(
            dw,
            "sto.checkpoint.after_blob_put",
            lambda: dw.sto.run_checkpoint(table_id),
        )
        RecoveryManager(dw.context, sto=dw.sto).recover()
        before = {b.path: b.data for b in dw.store.list("")}
        second = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert second.clean
        after = {b.path: b.data for b in dw.store.list("")}
        assert after == before

    def test_crashed_recovery_passes_converge(self, collecting):
        """Recovery can die at any of its own crashpoints — the
        participant site once per registered participant; the next pass
        finishes the job and ends clean."""
        dw, session = collecting
        crash_at(
            dw,
            "fe.write.before_manifest_flush",
            lambda: session.insert("t", batch(100, 50)),
        )
        assert list(dw.context.participants) == ["querystore", "waits"]
        manager = RecoveryManager(dw.context, sto=dw.sto)
        for site in RECOVERY_SITES:
            hits = 2 if site == "recovery.participant.after_scavenge" else 1
            for hit in range(1, hits + 1):
                controller = ChaosController().arm(site, hits=hit)
                with controller:
                    with pytest.raises(SimulatedCrash):
                        manager.recover()
                assert controller.crashes == [site]
                assert controller.hits[site] == hit
        assert manager.recover().clean

    def test_double_crash_scavenges_real_volatile_state(self, collecting):
        """A statement in flight, a wait scope open and requests queued
        at the crash: however often recovery itself dies, every record
        is discarded exactly once and none reaches an aggregate."""
        dw, _ = collecting
        tel = dw.telemetry
        gateway = Gateway(dw.context)
        for _ in range(3):
            gateway.submit("acme", "transactional", lambda session: None)
        sql = SqlSession(dw.session())
        insert = "INSERT INTO t (id, v) VALUES (1, 1.0)"
        with ChaosController().arm("fe.write.before_manifest_flush"):
            with pytest.raises(SimulatedCrash):
                with tel.waiting("storage_retry"):
                    dw.context.clock.advance(1.0)
                    sql.execute(insert)
        assert tel.querystore.inflight_count == 1
        assert tel.waits.inflight_count == 1

        # Sum what every scavenge() call discards, partial passes included.
        discarded = {}

        class Counting:
            def __init__(self, name, participant):
                self.name, self.participant = name, participant

            @property
            def inflight_count(self):
                return self.participant.inflight_count

            def scavenge(self):
                count = self.participant.scavenge()
                discarded[self.name] = discarded.get(self.name, 0) + count
                return count

        for name, participant in list(dw.context.participants.items()):
            dw.context.participants[name] = Counting(name, participant)
        report, problems = _recover_with_crashes(dw.context, dw.sto)
        assert not problems
        assert report.clean  # the final pass found nothing left
        assert discarded == {"querystore": 1, "waits": 1, "gateway": 3}
        assert tel.querystore.inflight_count == 0
        assert tel.waits.inflight_count == 0
        assert not gateway.requests_with_status("queued", "running")
        assert tel.querystore.profile(fingerprint(insert)) is None
        assert tel.waits.wait_count("storage_retry") == 0

    def test_any_registered_participant_is_scavenged(self, loaded):
        """The protocol, with no edit to chaos/recovery.py: a participant
        registered on the context is scavenged, reported under its name,
        counted, makes the pass unclean, and is crash-swept."""
        dw, _, _ = loaded

        class Fake:
            inflight_count = 2

            def scavenge(self):
                count, self.inflight_count = self.inflight_count, 0
                return count

        fake = Fake()
        dw.context.participants["fake"] = fake
        manager = RecoveryManager(dw.context, sto=dw.sto)
        report = manager.recover()
        assert report.scavenged == {"fake": 2}
        assert not report.clean
        assert (
            dw.telemetry.metrics.value("recovery.scavenged", participant="fake")
            == 2.0
        )
        assert manager.recover().clean

        fake.inflight_count = 1
        site = "recovery.participant.after_scavenge"
        controller = ChaosController().arm(site)
        with controller:
            with pytest.raises(SimulatedCrash):
                manager.recover()
        assert controller.crashes == [site]
        assert fake.inflight_count == 0
        assert manager.recover().clean

    def test_recovery_on_healthy_warehouse_is_clean(self, loaded):
        dw, session, _ = loaded
        report = RecoveryManager(dw.context, sto=dw.sto).recover()
        assert report.in_doubt_committed == 0
        assert report.in_doubt_aborted == 0
        assert report.staged_blocks_discarded == 0
        assert not report.missing_manifests

    def test_recovery_emits_bus_event_and_metrics(self, loaded):
        dw, session, _ = loaded
        events = []
        dw.context.bus.subscribe(
            "recovery.completed", lambda event: events.append(event)
        )
        RecoveryManager(dw.context, sto=dw.sto).recover()
        assert len(events) == 1
        assert dw.telemetry.metrics.value("recovery.runs") == 1


class TestProcessMemory:
    """Recovery and a restore both start from a cold process: every cache
    filled from the store or the catalog is dropped in one place."""

    @staticmethod
    def warm(dw):
        sql = SqlSession(dw.session())
        assert list(sql.execute("SELECT v FROM t WHERE id = 7")["v"]) == [7.0]
        return TestProcessMemory.sizes(dw.context)

    @staticmethod
    def sizes(context):
        optimizer = context.optimizer
        return {
            "snapshots": sum(len(v) for v in context.cache._entries.values()),
            "chunks": len(context.chunk_cache),
            "plans": len(context.plan_cache),
            "indexes": len(optimizer.index_cache),
            "stats": len(optimizer.stats_cache),
        }

    def test_recovery_and_restore_leave_every_cache_empty(self, loaded):
        dw, session, __ = loaded
        session.analyze_table("t")
        session.create_index("t", "idx", "id")
        cold = dict.fromkeys(self.sizes(dw.context), 0)
        assert all(self.warm(dw).values())
        RecoveryManager(dw.context, sto=dw.sto).recover()
        assert self.sizes(dw.context) == cold
        assert all(self.warm(dw).values())
        dw.restore(dw.backup())
        assert self.sizes(dw.context) == cold
