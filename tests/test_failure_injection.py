"""Resilience tests: task retries, storage faults, orphan cleanup.

Section 4.3: "In the event of a Task failure during a write operation, the
system is capable of re-scheduling the task without causing the entire
transaction to fail.  The data files generated by the failed Task will be
garbage collected, and the list of block blobs of the portion of the
manifest reclaimed by the underlying object store."
"""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.common.errors import TaskFailedError
from repro.dcp import scheduler
from tests.conftest import small_config


def count(table="t"):
    return Aggregate(TableScan(table, ("id",)), (), {"n": ("count", None)})


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


def make_warehouse(
    monkeypatch, task_failure_rate=0.0, storage_failure_rate=0.0, retries=3
):
    monkeypatch.setattr(scheduler, "TASK_FAILURE_RATE", task_failure_rate)
    monkeypatch.setattr(scheduler, "MAX_TASK_RETRIES", retries)
    config = small_config()
    config.storage.transient_failure_rate = storage_failure_rate
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")),
                         distribution_column="id")
    return dw, session


class TestTaskRetry:
    def test_writes_survive_task_failures(self, monkeypatch):
        dw, session = make_warehouse(monkeypatch, task_failure_rate=0.3, retries=10)
        session.insert("t", ids(100))
        assert dw.session().query(count())["n"][0] == 100

    def test_reads_survive_task_failures(self, monkeypatch):
        dw, session = make_warehouse(monkeypatch, task_failure_rate=0.3, retries=10)
        session.insert("t", ids(100))
        for __ in range(5):
            assert dw.session().query(count())["n"][0] == 100

    def test_mixed_workload_under_failures(self, monkeypatch):
        dw, session = make_warehouse(monkeypatch, task_failure_rate=0.2)
        session.insert("t", ids(100))
        session.delete("t", BinOp("<", Col("id"), Lit(30)))
        session.update("t", BinOp(">=", Col("id"), Lit(90)), {"v": Lit(1.0)})
        out = dw.session().query(count())
        assert out["n"][0] == 70

    def test_unrecoverable_failure_raises(self, monkeypatch):
        dw, session = make_warehouse(monkeypatch, task_failure_rate=1.0, retries=2)
        with pytest.raises(TaskFailedError):
            session.insert("t", ids(10))

    def test_failed_statement_leaves_no_visible_rows(self, monkeypatch):
        dw, session = make_warehouse(monkeypatch)
        # Arm a one-shot storage fault against the table's data folder so the
        # first write attempt dies mid-task.
        dw.store.faults.arm("/data/", operation="put")
        session.insert("t", ids(100))  # retried attempt succeeds
        assert dw.session().query(count())["n"][0] == 100

    def test_abandoned_attempt_files_are_gc_orphans(self, monkeypatch):
        dw, session = make_warehouse(monkeypatch)
        dw.store.faults.arm("/data/", operation="put")
        # The fault fires after some files of the statement already landed;
        # the retried task writes fresh files and the stale ones are orphans.
        session.insert("t", ids(100))
        live = {f.path for f in session.table_snapshot("t").files.values()}
        on_disk = {
            b.path for b in dw.store.list("internal/") if "/data/" in b.path
        }
        orphans = on_disk - live
        report = dw.sto.run_gc()
        assert orphans <= set(report.deleted)
        assert dw.session().query(count())["n"][0] == 100


class TestStorageFaults:
    def test_moderate_storage_faults_tolerated(self, monkeypatch):
        dw, session = make_warehouse(monkeypatch, storage_failure_rate=0.05, retries=10)
        session.insert("t", ids(100))
        # Retries may be consumed; the data must be intact regardless.
        assert dw.session().query(count())["n"][0] == 100


class TestCacheLossResilience:
    def test_cache_loss_has_no_consistency_impact(self, monkeypatch):
        """Node caches can vanish at any time (Section 3.3)."""
        dw, session = make_warehouse(monkeypatch)
        session.insert("t", ids(50))
        session.delete("t", BinOp("<", Col("id"), Lit(10)))
        before = dw.session().query(count())["n"][0]
        dw.context.cache.invalidate()  # all BE caches lost
        assert dw.session().query(count())["n"][0] == before == 40

    def test_topology_change_mid_transaction(self, monkeypatch):
        """Nodes joining/leaving never affect in-flight transactions."""
        dw, session = make_warehouse(monkeypatch)
        session.begin()
        session.insert("t", ids(50))
        pool = dw.context.wlm.pool("write")
        for node in list(pool.nodes)[:1]:
            pool.remove_node(node.node_id)
        pool.add_nodes(3)
        session.insert("t", ids(50, start=100))
        session.commit()
        assert dw.session().query(count())["n"][0] == 100
