"""Tests for the DCP: cells, DAGs, scheduling, retry, elasticity, WLM."""

import math

import numpy as np
import pytest

from repro.common.clock import SimulatedClock
from repro.common.config import DcpConfig, PolarisConfig
from repro.common.errors import (
    DcpError,
    SimulatedCrash,
    TaskFailedError,
    TopologyError,
)
from repro.dcp import autoscaler, costmodel
from repro.dcp import scheduler as dcp_scheduler
from repro.dcp import wlm as dcp_wlm
from repro.dcp import (
    Autoscaler,
    Scheduler,
    Task,
    Topology,
    WorkflowDag,
    WorkloadManager,
    cells_for_snapshot,
)
from repro.dcp.cells import distribution_of
from repro.dcp.costmodel import CostModel
from repro.lst import AddDataFile, DataFileInfo, TableSnapshot
from repro.storage import ObjectStore


def df(name, rows=10, dist=0):
    return DataFileInfo(name=name, path=f"p/{name}", num_rows=rows,
                        size_bytes=rows * 8, distribution=dist)


def make_scheduler(config=None):
    cfg = config or PolarisConfig()
    clock = SimulatedClock()
    store = ObjectStore(clock=clock, config=cfg.storage)
    return Scheduler(clock, store, CostModel(cfg.dcp)), clock


class TestCells:
    def test_files_grouped_by_distribution(self):
        snap = TableSnapshot().apply_manifest(
            [AddDataFile(df("a", dist=0)), AddDataFile(df("b", dist=1)),
             AddDataFile(df("c", dist=0))],
            1, 0.0, math.inf,
        )
        cells = cells_for_snapshot(7, snap, distributions=2)
        assert len(cells) == 2
        assert [f.name for f in cells[0].files] == ["a", "c"]
        assert [f.name for f in cells[1].files] == ["b"]

    def test_empty_distributions_present(self):
        cells = cells_for_snapshot(7, TableSnapshot(), distributions=4)
        assert len(cells) == 4
        assert all(not c.files for c in cells)

    def test_cell_metrics(self):
        snap = TableSnapshot().apply_manifest(
            [AddDataFile(df("a", rows=5)), AddDataFile(df("b", rows=7))], 1, 0.0,
            math.inf,
        )
        cell = cells_for_snapshot(7, snap, 1)[0]
        assert cell.num_rows == 12
        assert cell.total_bytes == 96

    def test_distribution_of_ints_deterministic(self):
        values = np.arange(1000)
        a = distribution_of(values, 16)
        b = distribution_of(values, 16)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 16
        # Roughly uniform: every bucket populated.
        assert len(set(a.tolist())) == 16

    def test_distribution_of_strings(self):
        values = np.array([f"k{i}" for i in range(200)], dtype=object)
        out = distribution_of(values, 8)
        assert out.min() >= 0 and out.max() < 8


class TestDag:
    def test_topological_order_respects_edges(self):
        dag = WorkflowDag()
        dag.add_task(Task("a", lambda c: None))
        dag.add_task(Task("b", lambda c: None), depends_on=["a"])
        dag.add_task(Task("c", lambda c: None), depends_on=["a", "b"])
        order = dag.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_duplicate_task_rejected(self):
        dag = WorkflowDag()
        dag.add_task(Task("a", lambda c: None))
        with pytest.raises(DcpError, match="duplicate"):
            dag.add_task(Task("a", lambda c: None))

    def test_unknown_dependency_rejected(self):
        dag = WorkflowDag()
        with pytest.raises(DcpError, match="unknown producer"):
            dag.add_task(Task("b", lambda c: None), depends_on=["ghost"])

    def test_cycle_detected(self):
        dag = WorkflowDag()
        dag.add_task(Task("a", lambda c: None))
        dag.add_task(Task("b", lambda c: None), depends_on=["a"])
        dag.add_edge("b", "a")
        with pytest.raises(DcpError, match="cycle"):
            dag.topological_order()


class TestScheduler:
    def test_results_and_inputs_flow(self):
        scheduler, _ = make_scheduler()
        wlm = WorkloadManager(DcpConfig())
        dag = WorkflowDag()
        dag.add_task(Task("x", lambda c: 10))
        dag.add_task(Task("y", lambda c: c.inputs["x"] + 5), depends_on=["x"])
        result = scheduler.execute(dag, wlm=wlm)
        assert result.result_of("y") == 15

    def test_parallel_tasks_overlap_in_time(self):
        cfg = PolarisConfig()
        scheduler, clock = make_scheduler(cfg)
        wlm = WorkloadManager(cfg.dcp)
        dag = WorkflowDag()
        for i in range(8):
            dag.add_task(Task(f"t{i}", lambda c: None, est_rows=1_000_000))
        result = scheduler.execute(dag, wlm=wlm)
        serial = 8 * (costmodel.TASK_OVERHEAD_S + cfg.dcp.seconds_per_million_rows)
        assert result.makespan < serial / 2  # 8 slots available

    def test_clock_advances_to_makespan(self):
        scheduler, clock = make_scheduler()
        wlm = WorkloadManager(DcpConfig())
        dag = WorkflowDag()
        dag.add_task(Task("t", lambda c: None, est_rows=1_000_000))
        result = scheduler.execute(dag, wlm=wlm)
        assert clock.now == pytest.approx(result.finished_at)

    def test_advance_clock_false_leaves_clock(self):
        scheduler, clock = make_scheduler()
        wlm = WorkloadManager(DcpConfig())
        dag = WorkflowDag()
        dag.add_task(Task("t", lambda c: None, est_rows=1_000_000))
        before = clock.now
        scheduler.execute(dag, wlm=wlm, advance_clock=False)
        assert clock.now == before

    def test_needs_exactly_one_target(self):
        scheduler, _ = make_scheduler()
        with pytest.raises(ValueError):
            scheduler.execute(WorkflowDag())
        with pytest.raises(ValueError):
            scheduler.execute(
                WorkflowDag(), wlm=WorkloadManager(DcpConfig()), topology=Topology()
            )

    def test_retry_on_planned_failure(self):
        scheduler, _ = make_scheduler()
        wlm = WorkloadManager(DcpConfig())
        dag = WorkflowDag()
        dag.add_task(Task("flaky", lambda c: c.attempt, fail_on_attempts=frozenset({1})))
        result = scheduler.execute(dag, wlm=wlm)
        assert result.result_of("flaky") == 2
        assert result.retries == 1

    def test_retry_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(dcp_scheduler, "MAX_TASK_RETRIES", 1)
        scheduler, _ = make_scheduler()
        wlm = WorkloadManager(DcpConfig())
        dag = WorkflowDag()
        dag.add_task(Task("dead", lambda c: None, fail_on_attempts=frozenset({1, 2, 3})))
        with pytest.raises(TaskFailedError):
            scheduler.execute(dag, wlm=wlm)

    def test_failed_attempt_burns_time(self):
        scheduler, _ = make_scheduler()
        wlm = WorkloadManager(DcpConfig())
        flaky = WorkflowDag()
        flaky.add_task(Task("t", lambda c: None, est_rows=2_000_000,
                            fail_on_attempts=frozenset({1})))
        r_flaky = scheduler.execute(flaky, wlm=wlm, advance_clock=False)

        scheduler2, _ = make_scheduler()
        clean = WorkflowDag()
        clean.add_task(Task("t", lambda c: None, est_rows=2_000_000))
        r_clean = scheduler2.execute(clean, wlm=WorkloadManager(DcpConfig()))
        assert r_flaky.makespan > r_clean.makespan

    def test_crash_in_a_task_leaves_execute_as_itself(self):
        # No crashpoint runs inside a task today, so the sweep never
        # crosses the scheduler's two crash-transparent handlers.
        scheduler, _ = make_scheduler()
        wlm = WorkloadManager(DcpConfig())

        def die(context):
            raise SimulatedCrash("fe.write.before_manifest_flush")

        dag = WorkflowDag()
        dag.add_task(Task("ok", lambda c: 1))
        dag.add_task(Task("dies", die), depends_on=["ok"])
        with pytest.raises(SimulatedCrash):
            scheduler.execute(dag, wlm=wlm)

    def test_pool_routing(self, monkeypatch):
        monkeypatch.setattr(dcp_wlm, "SLOTS_PER_NODE", 1)
        cfg = DcpConfig(fixed_nodes=1)
        scheduler, _ = make_scheduler(PolarisConfig(dcp=cfg))
        wlm = WorkloadManager(cfg, separate_pools=True)
        dag = WorkflowDag()
        dag.add_task(Task("r", lambda c: None, est_rows=1_000_000, pool="read"))
        dag.add_task(Task("w", lambda c: None, est_rows=1_000_000, pool="write"))
        result = scheduler.execute(dag, wlm=wlm)
        # Separate single-slot pools: the two tasks overlap.
        runs = result.runs
        assert runs["r"].node_id != runs["w"].node_id


class TestTopology:
    def test_resize_grows_and_shrinks(self):
        topo = Topology()
        topo.resize(5)
        assert topo.size == 5
        topo.resize(2)
        assert topo.size == 2

    def test_remove_unknown_node(self):
        with pytest.raises(TopologyError):
            Topology().remove_node(99)

    def test_removed_node_marked_dead(self):
        topo = Topology()
        node = topo.add_node()
        topo.remove_node(node.node_id)
        assert not node.alive

    def test_total_slots(self):
        topo = Topology()
        topo.add_nodes(3, slots=4)
        assert topo.total_slots == 12


class TestAutoscaler:
    def test_more_files_more_nodes(self):
        scaler = Autoscaler(DcpConfig())
        few = scaler.nodes_for_load(100_000_000, source_files=4)
        many = scaler.nodes_for_load(100_000_000, source_files=400)
        assert many > few

    def test_file_count_caps_parallelism(self, monkeypatch):
        """Reading within a source file does not scale out (Section 7.1)."""
        monkeypatch.setattr(dcp_wlm, "SLOTS_PER_NODE", 2)
        scaler = Autoscaler(DcpConfig())
        assert scaler.nodes_for_load(10**9, source_files=2) == 1

    def test_elastic_cap_respected(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "ELASTIC_MAX_NODES", 3)
        scaler = Autoscaler(DcpConfig())
        assert scaler.nodes_for_load(10**9, source_files=1000) <= 3
        assert scaler.nodes_for_query(10**9) <= 3

    def test_minimum_one_node(self):
        scaler = Autoscaler(DcpConfig())
        assert scaler.nodes_for_load(1, 1) == 1
        assert scaler.nodes_for_query(0) == 1


class TestWlm:
    def test_separate_pools_are_disjoint(self):
        wlm = WorkloadManager(DcpConfig(fixed_nodes=2), separate_pools=True)
        read_ids = {n.node_id for n in wlm.pool("read").nodes}
        write_ids = {n.node_id for n in wlm.pool("write").nodes}
        assert not (read_ids & write_ids)

    def test_shared_pool_is_same_object(self):
        wlm = WorkloadManager(DcpConfig(), separate_pools=False)
        assert wlm.pool("read") is wlm.pool("write")

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError):
            WorkloadManager(DcpConfig()).pool("etl")

    def test_resize_pool(self):
        wlm = WorkloadManager(DcpConfig(fixed_nodes=2))
        wlm.resize_pool("write", 6)
        assert wlm.pool("write").size == 6
        assert wlm.pool("read").size == 2
