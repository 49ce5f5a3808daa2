"""The service load generator, and WLM/autoscaler driven through it."""

import pytest

from repro import PolarisConfig, Warehouse
from repro.dcp import Autoscaler, autoscaler
from repro.service import Gateway, admission
from repro.service import gateway as service_gateway
from repro.workloads.service_load import ServiceLoadGenerator
from repro.workloads.tpch.queries import q6


def load_warehouse(seed=0, elastic=False, separate_pools=True):
    config = PolarisConfig()
    config.seed = seed
    return Warehouse(
        config=config,
        elastic=elastic,
        separate_pools=separate_pools,
        auto_optimize=False,
    )


def run_load(seed=0, elastic=False, separate_pools=True, **generator_kwargs):
    generator_kwargs.setdefault("transactional_clients", 2)
    generator_kwargs.setdefault("analytical_clients", 1)
    generator_kwargs.setdefault("requests_per_client", 2)
    generator_kwargs.setdefault("scale_factor", 0.02)
    dw = load_warehouse(seed, elastic, separate_pools)
    gateway = Gateway(dw.context, seed=seed)
    generator = ServiceLoadGenerator(gateway, seed=seed, **generator_kwargs)
    report = generator.run()
    return dw, gateway, generator, report


class TestLoadGenerator:
    def test_report_accounting_is_consistent(self):
        __, gateway, __, report = run_load()
        assert report.submitted == report.admitted + report.shed
        assert report.admitted == (
            report.completed + report.failed + report.timed_out
        )
        assert report.completed > 0
        assert report.elapsed_s > 0
        assert report.goodput == pytest.approx(
            report.completed / report.elapsed_s
        )
        assert not gateway.requests_with_status("queued", "running")

    def test_same_seed_reproduces_the_run_exactly(self):
        def witness():
            __, gateway, generator, report = run_load(seed=5)
            return (
                report.as_dict(),
                list(gateway.admission.decision_log),
                generator.admitted_latencies(),
            )

        assert witness() == witness()

    def test_overload_sheds_and_clients_honor_retry_after(self, monkeypatch):
        monkeypatch.setattr(admission, "TOKENS_PER_S", 0.5)
        monkeypatch.setattr(admission, "TOKEN_BURST", 2.0)
        __, gateway, __, report = run_load(
            transactional_clients=6,
            analytical_clients=3,
            requests_per_client=3,
            mean_think_s=0.05,
        )
        assert report.shed > 0
        assert report.retries > 0  # shed clients slept the hint and retried
        shed_rows = gateway.requests_with_status("shed")
        assert shed_rows and all(r.retry_after_s > 0 for r in shed_rows)

    def test_accounting_survives_ledger_eviction(self, monkeypatch):
        """Totals stay exact when terminal requests outnumber the ledger cap."""
        monkeypatch.setattr(service_gateway, "FINISHED_HISTORY_CAP", 3)
        __, gateway, __, report = run_load(
            transactional_clients=3,
            analytical_clients=1,
            requests_per_client=3,
        )
        terminal = report.completed + report.failed + report.timed_out
        assert report.admitted == terminal
        assert terminal > 3  # more finishers than the ledger retains
        assert len(gateway.request_rows()) <= 3
        assert gateway.finished_count("completed") == report.completed
        assert report.goodput == pytest.approx(
            report.completed / report.elapsed_s
        )

    def test_latencies_come_from_completed_requests_only(self):
        __, __, generator, report = run_load()
        latencies = generator.admitted_latencies()
        assert len(latencies) == report.completed
        assert latencies == sorted(latencies)
        assert all(l >= 0 for l in latencies)


class TestWlmThroughGateway:
    """WP3 separation under gateway traffic: reads and writes land on
    disjoint WLM pools, sized by the autoscaler."""

    def test_mixed_load_exercises_both_pools(self):
        dw, __, __, report = run_load(separate_pools=True)
        assert report.completed > 0
        tasks = dw.context.telemetry.metrics.values("dcp.tasks")
        pools = {key for key in tasks if "pool=" in key}
        assert any("pool=read" in key for key in pools), pools
        assert any("pool=write" in key for key in pools), pools
        wlm = dw.context.wlm
        assert wlm.separate_pools
        assert wlm.pool("read") is not wlm.pool("write")
        read_ids = {n.node_id for n in wlm.pool("read").nodes}
        write_ids = {n.node_id for n in wlm.pool("write").nodes}
        assert not read_ids & write_ids

    def test_shared_pool_ablation_contends_on_one_topology(self):
        dw, __, __, __ = run_load(separate_pools=False)
        wlm = dw.context.wlm
        assert not wlm.separate_pools
        assert wlm.pool("read") is wlm.pool("write")

    def test_elastic_read_pool_sized_by_the_autoscaler(self):
        dw, gateway, __, report = run_load(elastic=True)
        assert report.completed > 0
        # One final controlled scan with no concurrent mutations: the read
        # pool must end up at exactly the autoscaler's choice for the
        # table's current size.
        probe = gateway.submit(
            "tenant_a", "analytical", lambda s: s.query(q6())
        )
        gateway.run()
        assert probe.status == "completed"
        live_rows = dw.session().table_snapshot("lineitem").live_rows
        expected = dw.context.autoscaler.nodes_for_query(live_rows)
        assert dw.context.wlm.pool("read").size == expected


class TestAutoscalerUnit:
    def autoscaler(self):
        config = PolarisConfig().dcp
        config.rows_per_node_million = 1.0
        return Autoscaler(config)

    def test_load_parallelism_capped_by_source_files(self):
        scaler = self.autoscaler()
        # CPU cost alone would ask for 10 nodes; 4 files cap it at 2.
        assert scaler.nodes_for_load(10_000_000, source_files=4) == 2
        assert scaler.nodes_for_load(10_000_000, source_files=40) == 10

    def test_query_parallelism_tracks_rows(self):
        scaler = self.autoscaler()
        assert scaler.nodes_for_query(100) == 1
        assert scaler.nodes_for_query(3_500_000) == 4

    def test_elastic_max_nodes_caps_both_paths(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "ELASTIC_MAX_NODES", 3)
        scaler = self.autoscaler()
        assert scaler.nodes_for_query(50_000_000) == 3
        assert scaler.nodes_for_load(50_000_000, source_files=100) == 3
