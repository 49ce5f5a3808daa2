"""The service gateway: tasklets, admission, sessions, DMVs, determinism."""

import numpy as np
import pytest

from repro import PolarisConfig, Schema, Warehouse
from repro.common.clock import SimulatedClock
from repro.common.errors import (
    PolarisError,
    RequestSheddedError,
    RequestTimeoutError,
    ServiceError,
    SessionQuotaError,
)
from repro.service import AdmissionController, Gateway, TokenBucket, admission
from repro.service import gateway as service_gateway
from repro.service import sessions
from repro.service.sessions import SessionPool
from repro.service.tasklets import TaskletScheduler

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def batch(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


def set_knobs(monkeypatch, **knobs):
    """Vary gateway constants for one test, e.g. ``TOKEN_BURST=1.0``."""
    for name, value in knobs.items():
        module = next(
            m for m in (admission, sessions, service_gateway) if hasattr(m, name)
        )
        monkeypatch.setattr(module, name, value)


def gateway_config():
    config = PolarisConfig()
    config.distributions = 4
    config.rows_per_cell = 1_000
    config.dcp.fixed_nodes = 2
    return config


def gateway_warehouse(monkeypatch=None, **knobs):
    if knobs:
        set_knobs(monkeypatch, **knobs)
    dw = Warehouse(config=gateway_config(), auto_optimize=False)
    session = dw.session()
    session.create_table("t", SCHEMA, distribution_column="id")
    return dw, Gateway(dw.context), session


class TestTasklets:
    def test_same_seed_same_interleaving(self):
        def run(seed):
            clock = SimulatedClock()
            scheduler = TaskletScheduler(clock, seed=seed)
            log = []

            def worker(name, sleeps):
                for sleep_s in sleeps:
                    log.append((name, round(clock.now, 9)))
                    yield sleep_s

            # Identical wake instants force the seeded tie-break to decide.
            scheduler.spawn(worker("a", [1.0, 1.0, 1.0]), name="a")
            scheduler.spawn(worker("b", [1.0, 1.0, 1.0]), name="b")
            scheduler.spawn(worker("c", [1.0, 1.0, 1.0]), name="c")
            scheduler.run()
            return log

        assert run(7) == run(7)

    def test_run_until_leaves_future_tasklets_queued(self):
        clock = SimulatedClock()
        scheduler = TaskletScheduler(clock)
        seen = []

        def worker():
            seen.append(clock.now)
            yield 10.0
            seen.append(clock.now)

        scheduler.spawn(worker())
        scheduler.run(until=5.0)
        assert seen == [0.0]
        assert scheduler.pending == 1
        scheduler.run()
        assert seen == [0.0, 10.0]

    def test_clear_abandons_pending(self):
        clock = SimulatedClock()
        scheduler = TaskletScheduler(clock)
        scheduler.spawn(iter([1.0]))
        scheduler.spawn(iter([2.0]))
        assert scheduler.clear() == 2
        assert scheduler.pending == 0
        assert scheduler.run() == 0


class TestTokenBucket:
    def test_refill_is_clock_driven_and_capped(self):
        clock = SimulatedClock()
        bucket = TokenBucket(clock, rate=2.0, burst=4.0)
        assert bucket.try_take(4.0)
        assert not bucket.try_take(1.0)
        clock.advance(1.0)
        assert bucket.tokens == pytest.approx(2.0)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(4.0)  # capped at burst


class FakeRequest:
    """Stand-in carrying only what the admission controller reads."""

    def __init__(self, name, submitted_at=0.0):
        self.name = name
        self.submitted_at = submitted_at


class TestAdmission:
    def controller(self, monkeypatch, clock=None, **knobs):
        set_knobs(monkeypatch, **knobs)
        return AdmissionController(clock or SimulatedClock(), seed=0)

    def test_priority_order_with_fifo_ties(self, monkeypatch):
        admission = self.controller(monkeypatch)
        for name, priority in (("low", 0), ("high", 5), ("mid", 1), ("high2", 5)):
            verdict = admission.admit(
                "a", "transactional", priority, FakeRequest(name)
            )
            assert verdict is None
        order = []
        while True:
            request, expired = admission.next_request()
            assert expired == []
            if request is None:
                break
            order.append(request.name)
        assert order == ["high", "high2", "mid", "low"]

    def test_weighted_round_robin_between_classes(self, monkeypatch):
        admission = self.controller(monkeypatch, TRANSACTIONAL_SHARE=2, TOKEN_BURST=100.0)
        for i in range(6):
            admission.admit("a", "transactional", 0, FakeRequest(f"t{i}"))
        for i in range(3):
            admission.admit("b", "analytical", 0, FakeRequest(f"q{i}"))
        order = []
        while True:
            request, __ = admission.next_request()
            if request is None:
                break
            order.append(request.name)
        assert order == ["t0", "t1", "q0", "t2", "t3", "q1", "t4", "t5", "q2"]

    def test_rate_limit_sheds_with_seeded_hint(self, monkeypatch):
        admission = self.controller(monkeypatch, TOKENS_PER_S=1.0, TOKEN_BURST=1.0)
        assert admission.admit("a", "transactional", 0, FakeRequest("ok")) is None
        verdict = admission.admit("a", "transactional", 0, FakeRequest("no"))
        assert verdict is not None
        reason, hint = verdict
        assert reason == "rate_limited"
        assert hint > 0
        # A different tenant has its own bucket.
        assert admission.admit("b", "transactional", 0, FakeRequest("ok2")) is None

    def test_full_queue_sheds(self, monkeypatch):
        admission = self.controller(monkeypatch, QUEUE_CAPACITY=2, TOKEN_BURST=100.0)
        assert admission.admit("a", "transactional", 0, FakeRequest("r1")) is None
        assert admission.admit("a", "transactional", 0, FakeRequest("r2")) is None
        reason, hint = admission.admit("a", "transactional", 0, FakeRequest("r3"))
        assert reason == "queue_full"
        assert hint > 0

    def test_deadline_expires_stale_requests_at_dispatch(self, monkeypatch):
        clock = SimulatedClock()
        admission = self.controller(monkeypatch, clock, QUEUE_DEADLINE_S=5.0)
        admission.admit("a", "transactional", 0, FakeRequest("old", clock.now))
        clock.advance(6.0)
        admission.admit("a", "transactional", 0, FakeRequest("new", clock.now))
        request, expired = admission.next_request()
        assert request.name == "new"
        assert [r.name for r in expired] == ["old"]

    def test_decision_log_is_canonical_and_seeded(self, monkeypatch):
        logs = []
        for __ in range(2):
            admission = self.controller(monkeypatch, TOKENS_PER_S=1.0, TOKEN_BURST=1.0)
            admission.admit("a", "transactional", 1, FakeRequest("r1"))
            admission.admit("a", "transactional", 0, FakeRequest("r2"))
            logs.append(list(admission.decision_log))
        assert logs[0] == logs[1]
        assert "admit tenant=a" in logs[0][0]
        assert "shed rate_limited tenant=a" in logs[0][1]


class TestSessionPool:
    def pool(self, monkeypatch, dw, **knobs):
        set_knobs(monkeypatch, **knobs)
        return SessionPool(dw.context)

    def test_quota_then_reuse(self, monkeypatch, warehouse):
        pool = self.pool(monkeypatch, warehouse, MAX_SESSIONS_PER_TENANT=2)
        first = pool.acquire("a")
        second = pool.acquire("a")
        with pytest.raises(SessionQuotaError):
            pool.acquire("a")
        # Another tenant has its own quota.
        assert pool.acquire("b").tenant == "b"
        pool.release(first)
        reused = pool.acquire("a")
        assert reused.session_id == first.session_id
        assert reused.requests == 1
        assert second.state == "active"

    def test_reap_closes_only_idle_expired(self, monkeypatch, warehouse):
        pool = self.pool(monkeypatch, warehouse, SESSION_IDLE_TIMEOUT_S=10.0)
        idle = pool.acquire("a")
        busy = pool.acquire("a")
        pool.release(idle)
        warehouse.clock.advance(11.0)
        assert pool.reap_idle() == 1
        assert idle.state == "closed"
        assert busy.state == "active"
        assert pool.open_count == 1


class TestGateway:
    def test_sql_text_work_runs_and_returns_batch(self):
        dw, gateway, session = gateway_warehouse()
        session.insert("t", batch(0, 20))
        request = gateway.submit(
            "tenant_a", "analytical", "SELECT id FROM t WHERE id < 5"
        )
        gateway.run()
        assert request.status == "completed"
        assert len(request.result["id"]) == 5
        assert request.queue_wait_s >= 0
        assert request.session_id > 0

    def test_unknown_workload_class_rejected(self):
        __, gateway, __ = gateway_warehouse()
        with pytest.raises(Exception, match="workload class"):
            gateway.submit("tenant_a", "batch", "SELECT id FROM t")

    def test_shed_raises_with_retry_after(self, monkeypatch):
        __, gateway, __ = gateway_warehouse(monkeypatch, TOKENS_PER_S=0.1, TOKEN_BURST=1.0)
        gateway.submit("tenant_a", "transactional", lambda s: None)
        with pytest.raises(RequestSheddedError) as exc:
            gateway.submit("tenant_a", "transactional", lambda s: None)
        assert exc.value.reason == "rate_limited"
        assert exc.value.retry_after_s > 0
        shed = gateway.requests_with_status("shed")
        assert len(shed) == 1
        assert shed[0].retry_after_s == exc.value.retry_after_s

    def test_failed_work_marks_request_failed_not_gateway(self):
        __, gateway, __ = gateway_warehouse()
        bad = gateway.submit(
            "tenant_a", "analytical", "SELECT id FROM does_not_exist"
        )
        good = gateway.submit("tenant_a", "analytical", "SELECT id FROM t")
        gateway.run()
        assert bad.status == "failed"
        assert bad.error
        assert good.status == "completed"

    def test_non_polaris_error_fails_the_request_not_the_dispatcher(self):
        """Regression: work raising anything but PolarisError used to kill
        the dispatcher tasklet — the request stayed ``running`` forever
        and every later request stayed ``queued``."""
        dw, gateway, __ = gateway_warehouse()

        def buggy(session):
            raise ValueError("client bug")

        bad = gateway.submit("tenant_a", "transactional", buggy)
        good = gateway.submit(
            "tenant_a", "transactional", "CREATE TABLE u (id BIGINT, v DOUBLE)"
        )
        gateway.run()
        assert bad.status == "failed"
        assert bad.error == "ValueError"
        with pytest.raises(ValueError, match="client bug"):
            bad.outcome()
        assert good.status == "completed"
        # The failed request's session went back to the pool and was reused.
        assert [row["state"] for row in gateway.session_rows()] == ["idle"]
        rows = dw.session().sql("SELECT status FROM sys.dm_requests")
        assert list(rows["status"]) == ["failed", "completed"]

    def test_queue_deadline_times_requests_out(self, monkeypatch):
        dw, gateway, __ = gateway_warehouse(monkeypatch, QUEUE_DEADLINE_S=5.0)
        stale = gateway.submit("tenant_a", "transactional", lambda s: None)
        dw.clock.advance(6.0)
        fresh = gateway.submit("tenant_a", "transactional", lambda s: 7)
        gateway.run()
        assert stale.status == "timed_out"
        assert stale.error == "RequestTimeoutError"
        with pytest.raises(RequestTimeoutError, match="queue deadline"):
            stale.outcome()
        assert fresh.status == "completed"
        assert fresh.outcome() == 7

    def test_outcome_surfaces_terminal_errors(self):
        __, gateway, __ = gateway_warehouse()
        bad = gateway.submit(
            "tenant_a", "analytical", "SELECT id FROM does_not_exist"
        )
        # Still queued: outcome() refuses rather than returning None.
        with pytest.raises(ServiceError, match="still 'queued'"):
            bad.outcome()
        gateway.run()
        assert bad.status == "failed"
        with pytest.raises(PolarisError) as exc:
            bad.outcome()
        assert type(exc.value).__name__ == bad.error

    def test_shed_request_outcome_reraises_the_shed_error(self, monkeypatch):
        __, gateway, __ = gateway_warehouse(monkeypatch, TOKENS_PER_S=0.1, TOKEN_BURST=1.0)
        gateway.submit("tenant_a", "transactional", lambda s: None)
        with pytest.raises(RequestSheddedError):
            gateway.submit("tenant_a", "transactional", lambda s: None)
        shed = gateway.requests_with_status("shed")[0]
        with pytest.raises(RequestSheddedError) as exc:
            shed.outcome()
        assert exc.value.retry_after_s == shed.retry_after_s

    def test_session_acquire_failure_fails_request_not_dispatcher(self, monkeypatch):
        __, gateway, __ = gateway_warehouse(monkeypatch, MAX_SESSIONS_PER_TENANT=1)
        # Hold tenant_a's only session busy outside the dispatcher, so the
        # dispatcher's acquire raises SessionQuotaError mid-dispatch.
        held = gateway.pool.acquire("tenant_a")
        starved = gateway.submit("tenant_a", "transactional", lambda s: None)
        other = gateway.submit("tenant_b", "transactional", lambda s: 1)
        gateway.run()
        assert starved.status == "failed"
        assert starved.error == "SessionQuotaError"
        with pytest.raises(SessionQuotaError):
            starved.outcome()
        assert other.status == "completed"  # the dispatcher survived
        gateway.pool.release(held)

    def test_finished_totals_survive_ledger_eviction(self, monkeypatch):
        __, gateway, __ = gateway_warehouse(monkeypatch, FINISHED_HISTORY_CAP=2)
        requests = [
            gateway.submit("tenant_a", "transactional", lambda s: None)
            for __ in range(5)
        ]
        gateway.run()
        assert all(r.status == "completed" for r in requests)
        assert len(gateway.request_rows()) == 2  # ledger keeps only the cap
        assert gateway.finished_count("completed") == 5  # totals never evict
        assert (
            gateway.finished_count(
                "completed", workload_class="transactional"
            )
            == 5
        )
        assert (
            gateway.finished_count("completed", workload_class="analytical")
            == 0
        )

    def test_scavenge_with_finished_ledger_at_cap(self, monkeypatch):
        """Regression: scavenging must survive its own ledger evictions."""
        __, gateway, __ = gateway_warehouse(monkeypatch, FINISHED_HISTORY_CAP=2)
        for __ in range(3):
            gateway.submit("tenant_a", "transactional", lambda s: None)
        gateway.run()  # the finished ledger is now at its cap
        queued = [
            gateway.submit("tenant_a", "transactional", lambda s: None)
            for __ in range(3)
        ]
        assert gateway.scavenge() == 3
        assert [r.status for r in queued] == ["scavenged"] * 3
        assert not gateway.requests_with_status("queued", "running")
        assert gateway.finished_count("scavenged") == 3

    def test_sessions_reused_and_reaped(self, monkeypatch):
        dw, gateway, __ = gateway_warehouse(monkeypatch, SESSION_IDLE_TIMEOUT_S=50.0)
        for __ in range(3):
            gateway.submit("tenant_a", "transactional", lambda s: None)
        gateway.run()
        rows = gateway.session_rows()
        assert len(rows) == 1  # serial dispatch reuses one pooled session
        assert rows[0]["requests"] == 3
        assert rows[0]["state"] == "idle"
        dw.clock.advance(60.0)
        assert gateway.reap_sessions() == 1
        assert gateway.session_rows()[0]["state"] == "closed"


class TestDmvViews:
    def test_empty_views_keep_schema_dtypes_without_gateway(self, warehouse):
        session = warehouse.session()
        sessions = session.sql("SELECT * FROM sys.dm_sessions")
        assert sessions["session_id"].dtype == np.int64
        assert sessions["opened_at"].dtype == np.float64
        assert len(sessions["session_id"]) == 0
        requests = session.sql("SELECT * FROM sys.dm_requests")
        assert requests["request_id"].dtype == np.int64
        assert requests["queue_wait_s"].dtype == np.float64
        assert len(requests["request_id"]) == 0

    def test_views_reflect_the_ledger(self):
        dw, gateway, session = gateway_warehouse()
        session.insert("t", batch(0, 10))
        gateway.submit("tenant_a", "analytical", "SELECT id FROM t")
        gateway.submit("tenant_b", "transactional", lambda s: None)
        gateway.run()
        rows = session.sql(
            "SELECT request_id, tenant, workload_class, status "
            "FROM sys.dm_requests ORDER BY request_id"
        )
        assert list(rows["tenant"]) == ["tenant_a", "tenant_b"]
        assert list(rows["status"]) == ["completed", "completed"]
        sessions = session.sql(
            "SELECT session_id, tenant, requests FROM sys.dm_sessions "
            "ORDER BY session_id"
        )
        assert sorted(sessions["tenant"]) == ["tenant_a", "tenant_b"]
        assert sum(sessions["requests"]) == 2

    def test_views_support_explain_and_aggregation(self):
        __, gateway, session = gateway_warehouse()
        gateway.submit("tenant_a", "transactional", lambda s: None)
        gateway.run()
        plan = session.sql(
            "EXPLAIN SELECT request_id FROM sys.dm_requests "
            "WHERE status = 'completed'"
        )
        assert "sys.dm_requests" in plan
        agg = session.sql(
            "SELECT status, COUNT(*) AS n FROM sys.dm_requests GROUP BY status"
        )
        assert list(agg["status"]) == ["completed"]
        assert int(agg["n"][0]) == 1


class TestDeterminism:
    """Same seed + config => byte-identical admission decisions, queue
    orders, and service.* metric values across two runs."""

    @staticmethod
    def _scripted_run(monkeypatch):
        from random import Random

        dw, gateway, session = gateway_warehouse(
            monkeypatch,
            TOKENS_PER_S=0.5,
            TOKEN_BURST=2.0,
            QUEUE_CAPACITY=3,
        )

        def client(index):
            rng = Random(f"det:{index}")
            for turn in range(3):
                yield rng.uniform(0.1, 2.0)
                work = (
                    lambda s, start=1000 * index + 10 * turn: s.insert(
                        "t", batch(start, 10)
                    )
                )
                try:
                    gateway.submit("shared", "transactional", work)
                except RequestSheddedError as shed:
                    yield shed.retry_after_s

        for index in range(4):
            gateway.scheduler.spawn(client(index), name=f"client-{index}")
        gateway.run()
        metrics = {
            key: value
            for key, value in dw.context.telemetry.metrics.snapshot().items()
            if key.startswith("service.")
        }
        return (
            list(gateway.admission.decision_log),
            gateway.request_rows(),
            metrics,
        )

    def test_two_runs_are_byte_identical(self, monkeypatch):
        first = self._scripted_run(monkeypatch)
        second = self._scripted_run(monkeypatch)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]
        # The scenario must actually exercise shedding for the witness to
        # mean anything.
        assert any("shed" in line for line in first[0])
        assert any("admit" in line for line in first[0])
