"""Edge-path coverage: commit lock, manifest IO, backup details, scheduler."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.common.clock import SimulatedClock
from repro.common.config import DcpConfig, PolarisConfig
from repro.common.errors import TaskFailedError
from repro.dcp import Scheduler, Task, Topology, WorkflowDag
from repro.dcp.costmodel import CostModel
from repro.sqldb.locks import CommitLock
from repro.storage import ObjectStore
from tests.conftest import small_config


class TestCommitLock:
    def test_reentry_detected(self):
        lock = CommitLock()
        with lock.held(1):
            assert lock.is_held
            with pytest.raises(AssertionError, match="re-entered"):
                with lock.held(2):
                    pass
        assert not lock.is_held

    def test_released_on_exception(self):
        lock = CommitLock()
        with pytest.raises(RuntimeError):
            with lock.held(1):
                raise RuntimeError("boom")
        assert not lock.is_held
        assert lock.acquisitions == 1

    def test_acquisition_count(self):
        lock = CommitLock()
        for txid in range(3):
            with lock.held(txid):
                pass
        assert lock.acquisitions == 3


class TestManifestIo:
    def test_missing_checkpoint_blob_falls_back(self):
        """A checkpoint row whose blob vanished must not break reads."""
        dw = Warehouse(config=small_config(), auto_optimize=False)
        session = dw.session()
        session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id",
        )
        session.insert("t", {"id": np.arange(10, dtype=np.int64),
                             "v": np.zeros(10)})
        result = dw.sto.run_checkpoint(1001)
        dw.store.delete(result.path)  # simulate a lost checkpoint blob
        dw.context.cache.invalidate()
        assert session.table_snapshot("t").live_rows == 10  # full replay


class TestBackupDetails:
    def test_file_granularity_writesets_roundtrip(self):
        config = small_config()
        config.txn.conflict_granularity = "file"
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        from repro import BinOp, Col, Lit
        session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id",
        )
        session.insert("t", {"id": np.arange(10, dtype=np.int64),
                             "v": np.zeros(10)})
        session.delete("t", BinOp("==", Col("id"), Lit(1)))
        backup = dw.backup()
        dw.restore(backup)
        # WriteSets rows with (table, file) keys survived the roundtrip.
        from repro.sqldb import system_tables as st
        txn = dw.context.sqldb.begin()
        rows = list(txn.scan(st.WRITESETS))
        txn.abort()
        assert rows and all("data_file_name" in r for r in rows)

    def test_restore_same_state_is_idempotent(self):
        dw = Warehouse(config=small_config(), auto_optimize=False)
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        session.insert("t", {"id": np.arange(5, dtype=np.int64),
                             "v": np.zeros(5)})
        backup = dw.backup()
        dw.restore(backup)
        dw.restore(dw.backup())
        assert dw.session().table_snapshot("t").live_rows == 5


class TestSchedulerEdges:
    def test_empty_pool_raises(self):
        config = PolarisConfig()
        clock = SimulatedClock()
        store = ObjectStore(clock=clock, config=config.storage)
        scheduler = Scheduler(clock, store, CostModel(config.dcp))
        topology = Topology()  # no nodes at all
        dag = WorkflowDag()
        dag.add_task(Task("t", lambda c: None))
        with pytest.raises(TaskFailedError, match="no compute nodes"):
            scheduler.execute(dag, topology=topology)

    def test_empty_dag(self):
        config = PolarisConfig()
        clock = SimulatedClock()
        store = ObjectStore(clock=clock, config=config.storage)
        scheduler = Scheduler(clock, store, CostModel(config.dcp))
        topology = Topology()
        topology.add_node()
        result = scheduler.execute(WorkflowDag(), topology=topology)
        assert result.makespan == 0.0
        assert result.results == {}

    def test_task_exception_propagates(self):
        config = PolarisConfig()
        clock = SimulatedClock()
        store = ObjectStore(clock=clock, config=config.storage)
        scheduler = Scheduler(clock, store, CostModel(config.dcp))
        topology = Topology()
        topology.add_node()
        dag = WorkflowDag()

        def bug(ctx):
            raise ValueError("task bug")

        dag.add_task(Task("t", bug))
        # Non-transient errors are bugs, not retriable faults.
        with pytest.raises(ValueError, match="task bug"):
            scheduler.execute(dag, topology=topology)


class TestSnapshotOverlayEdge:
    def test_txn_snapshot_with_rewrite_then_read(self):
        """Overlay must stay valid after multiple reconciling rewrites."""
        from repro import BinOp, Col, Lit
        dw = Warehouse(config=small_config(), auto_optimize=False)
        session = dw.session()
        session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id",
        )
        session.insert("t", {"id": np.arange(20, dtype=np.int64),
                             "v": np.zeros(20)})
        session.begin()
        for bound in (5, 10, 15):
            session.delete("t", BinOp("<", Col("id"), Lit(bound)))
            snapshot = session._txn.table_snapshot(1001)
            assert snapshot.live_rows == 20 - bound
        session.commit()
        assert dw.session().table_snapshot("t").live_rows == 5
