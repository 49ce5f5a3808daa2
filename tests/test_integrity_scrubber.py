"""Tests for the STO integrity scrubber: quarantine, repair, surfacing.

The corruption *sweep* (:mod:`repro.chaos.corruption`, exercised in
``test_chaos_corruption``) checks the end-to-end story; these tests pin
the scrubber's individual contracts — per-kind repair rules, health and
DMV surfacing, orchestrator metrics, periodic scheduling, and
unrepairable loss in ``sys.dm_metrics``.
"""

import json

import pytest

from repro.chaos.corruption import _build
from repro.lst.codec import decode_frames
from repro.sqldb import system_tables as catalog
from repro.sto.delta_reader import read_published_table


@pytest.fixture
def deployment():
    """A warehouse with every blob kind present (see corruption._build)."""
    return _build(seed=0)


def _rows(warehouse, table_id):
    txn = warehouse.context.sqldb.begin()
    try:
        return (
            catalog.manifests_for_table(txn, table_id),
            catalog.checkpoints_for_table(txn, table_id),
        )
    finally:
        txn.abort()


def _data_path(warehouse, table_id):
    manifests, __ = _rows(warehouse, table_id)
    snapshot = warehouse.context.cache.get(
        table_id, manifests[-1]["sequence_id"]
    )
    return sorted(info.path for info in snapshot.files.values())[0]


class TestScrubClean:
    def test_healthy_deployment_scrubs_clean(self, deployment):
        warehouse, __ = deployment
        report = warehouse.sto.run_scrub()
        assert report.clean
        assert report.tables_scanned == 2
        assert report.blobs_verified > 0
        assert report.repaired == 0
        assert report.unrepairable == 0
        assert report.quarantined == 0


class TestScrubRepairs:
    def test_checkpoint_rematerialized_in_place(self, deployment):
        warehouse, ids = deployment
        __, checkpoints = _rows(warehouse, ids["orders"])
        path = checkpoints[-1]["path"]
        warehouse.store.damage(path, "bit_flip")
        report = warehouse.sto.run_scrub()
        (record,) = report.records
        assert record.kind == "checkpoint"
        assert record.action == "repaired"
        assert record.quarantine_path
        assert warehouse.store.exists(record.quarantine_path)
        assert warehouse.store.verify(path) is None

    def test_covered_manifest_rebuilt_from_checkpoint(self, deployment):
        warehouse, ids = deployment
        manifests, __ = _rows(warehouse, ids["orders"])
        path = manifests[-1]["manifest_path"]
        warehouse.store.damage(path, "torn_write")
        report = warehouse.sto.run_scrub()
        (record,) = report.records
        assert record.action == "repaired"
        # The rebuilt manifest is one block of the metadata codec.
        [block] = decode_frames(warehouse.store.get(path).data, path)
        assert json.loads(block)
        warehouse.context.cache.invalidate()
        live = warehouse.session().table_snapshot("orders").live_rows
        assert live == 500
        assert not warehouse.sto.health.integrity_compromised(ids["orders"])

    def test_uncovered_manifest_is_permanent_loss(self, deployment):
        warehouse, ids = deployment
        manifests, __ = _rows(warehouse, ids["orders"])
        # The first manifest has a later manifest between it and the
        # checkpoint, so no checkpoint captures exactly its post-state.
        warehouse.store.damage(manifests[0]["manifest_path"], "bit_flip")
        report = warehouse.sto.run_scrub()
        assert any(
            r.kind == "manifest" and r.action == "unrepairable"
            for r in report.records
        )
        assert warehouse.sto.health.integrity_compromised(ids["orders"])
        view = warehouse.session().sql("SELECT * FROM sys.dm_storage_health")
        states = dict(
            zip(view["table_name"].tolist(), view["state"].tolist())
        )
        assert states["orders"] == "RED"
        assert states["control"] == "GREEN"

    def test_data_loss_quarantined_never_deleted(self, deployment):
        warehouse, ids = deployment
        path = _data_path(warehouse, ids["orders"])
        original = warehouse.store.get(path).data
        warehouse.store.damage(path, "bit_flip")
        report = warehouse.sto.run_scrub()
        (record,) = report.records
        assert record.kind == "data"
        assert record.action == "unrepairable"
        assert not warehouse.store.exists(path)
        forensic = warehouse.store.get(record.quarantine_path)
        assert forensic.metadata["quarantined_from"] == path
        assert len(forensic.data) == len(original)
        assert warehouse.sto.health.integrity_compromised(ids["orders"])

    def test_delta_log_republished_from_manifest(self, deployment):
        warehouse, ids = deployment
        from repro.storage import paths

        prefix = (
            paths.published_root(warehouse.context.database, "orders")
            + "/_delta_log/"
        )
        path = sorted(b.path for b in warehouse.store.list(prefix))[-1]
        warehouse.store.damage(path, "torn_write")
        report = warehouse.sto.run_scrub()
        (record,) = report.records
        assert record.kind == "delta_log"
        assert record.action == "repaired"
        assert read_published_table(warehouse.context, "orders") is not None


class TestOrchestratorScrub:
    def test_scrub_metrics_and_report_history(self, deployment):
        warehouse, ids = deployment
        warehouse.store.damage(_data_path(warehouse, ids["orders"]), "bit_flip")
        report = warehouse.sto.run_scrub()
        assert warehouse.sto.scrub_reports[-1] is report
        metrics = warehouse.telemetry.metrics
        assert (
            metrics.value("storage.integrity_blobs_verified")
            == report.blobs_verified
        )
        assert metrics.value("storage.integrity_quarantined") == 1
        assert metrics.value("storage.integrity_unrepairable") == 1
        assert metrics.value("storage.integrity_repaired") == 0

    def test_periodic_scrub_fires_and_rearms(self, deployment):
        warehouse, __ = deployment
        warehouse.sto.enabled = True
        warehouse.sto.schedule_periodic_scrub(interval_s=100.0)
        warehouse.clock.advance(101.0)
        assert len(warehouse.sto.scrub_reports) == 1
        warehouse.clock.advance(100.0)
        assert len(warehouse.sto.scrub_reports) == 2

    def test_periodic_scrub_respects_enabled_flag(self, deployment):
        warehouse, __ = deployment
        warehouse.sto.enabled = False
        warehouse.sto.schedule_periodic_scrub(interval_s=10.0)
        warehouse.clock.advance(11.0)
        assert warehouse.sto.scrub_reports == []


class TestIntegrityDmv:
    def test_dm_storage_integrity_surfaces_findings(self, deployment):
        warehouse, ids = deployment
        path = _data_path(warehouse, ids["orders"])
        warehouse.store.damage(path, "bit_flip")
        warehouse.sto.run_scrub()
        view = warehouse.session().sql(
            "SELECT * FROM sys.dm_storage_integrity"
        )
        assert view["path"].tolist() == [path]
        assert view["kind"].tolist() == ["data"]
        assert view["action"].tolist() == ["unrepairable"]
        assert view["table_name"].tolist() == ["orders"]
        (quarantine_path,) = view["quarantine_path"].tolist()
        assert warehouse.store.exists(quarantine_path)

    def test_dm_storage_integrity_empty_when_clean(self, deployment):
        warehouse, __ = deployment
        warehouse.sto.run_scrub()
        view = warehouse.session().sql(
            "SELECT * FROM sys.dm_storage_integrity"
        )
        assert view["path"].tolist() == []


class TestUnrepairableLoss:
    def test_unrepairable_loss_reaches_dm_metrics(self, deployment):
        warehouse, ids = deployment

        def unrepairable():
            rows = warehouse.session().sql("SELECT name, value FROM sys.dm_metrics")
            return sum(
                value
                for name, value in zip(rows["name"], rows["value"])
                if name == "storage.integrity_unrepairable"
            )

        warehouse.sto.run_scrub()
        assert unrepairable() == 0
        warehouse.store.damage(_data_path(warehouse, ids["orders"]), "bit_flip")
        warehouse.sto.run_scrub()
        assert unrepairable() == 1
