"""Tests for retry backoff, clock charging, and extended fault injection."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.config import PolarisConfig, StorageConfig
from repro.common.errors import TransientStorageError
from repro.storage import ObjectStore, failures, retry
from repro.storage.retry import backoff_schedule, with_retries


def set_backoff(monkeypatch, **values):
    """Override ``retry.RETRY_<NAME>`` constants, e.g. ``jitter=0.0``."""
    for name, value in values.items():
        monkeypatch.setattr(retry, f"RETRY_{name.upper()}", value)


class TestBackoffSchedule:
    def test_deterministic_per_seed_and_label(self):
        one = backoff_schedule(5, seed=1, label="manifest_flush")
        assert one == backoff_schedule(5, seed=1, label="manifest_flush")
        assert one != backoff_schedule(5, seed=2, label="manifest_flush")
        assert one != backoff_schedule(5, seed=1, label="checkpoint_load")

    def test_exponential_growth_within_jitter_bounds(self, monkeypatch):
        set_backoff(monkeypatch, base_backoff_s=1.0, max_backoff_s=100.0, jitter=0.5)
        delays = backoff_schedule(5, seed=0)
        for index, delay in enumerate(delays[:-1]):
            raw = 1.0 * 2**index
            assert raw * 0.5 <= delay <= raw * 1.5

    def test_capped_at_max_backoff(self, monkeypatch):
        set_backoff(monkeypatch, base_backoff_s=1.0, max_backoff_s=2.0, jitter=0.0)
        assert backoff_schedule(6, seed=0) == [
            1.0,
            2.0,
            2.0,
            2.0,
            2.0,
            0.0,
        ]

    def test_final_attempt_has_no_delay(self):
        assert backoff_schedule(3, seed=0)[-1] == 0.0

    def test_zero_jitter_is_pure_exponential(self, monkeypatch):
        set_backoff(monkeypatch, jitter=0.0, base_backoff_s=0.1)
        assert backoff_schedule(4, seed=0)[:3] == [
            0.1,
            0.2,
            0.4,
        ]


class TestWithRetriesClockCharging:
    def test_backoff_charged_to_simulated_clock(self, monkeypatch):
        clock = SimulatedClock()
        set_backoff(monkeypatch, base_backoff_s=1.0, max_backoff_s=10.0, jitter=0.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientStorageError("boom")
            return "ok"

        start = clock.now
        result = with_retries(flaky, clock=clock, seed=0)
        assert result == "ok"
        assert clock.now - start == pytest.approx(1.0 + 2.0)

    def test_exhausted_retries_charge_all_but_final(self, monkeypatch):
        clock = SimulatedClock()
        set_backoff(monkeypatch, base_backoff_s=1.0, max_backoff_s=10.0, jitter=0.0)

        def always_fails():
            raise TransientStorageError("boom")

        start = clock.now
        with pytest.raises(TransientStorageError):
            with_retries(always_fails, attempts=3, clock=clock, seed=0)
        # Two backoffs (1s, 2s); the final failed attempt waits for nothing.
        assert clock.now - start == pytest.approx(3.0)

    def test_no_clock_means_no_charge(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise TransientStorageError("boom")
            return calls["n"]

        assert with_retries(flaky) == 2

    def test_backoff_visible_in_retry_span_events(self, monkeypatch):
        from repro import Warehouse

        set_backoff(monkeypatch, jitter=0.0)
        config = PolarisConfig()
        config.telemetry.enabled = True
        dw = Warehouse(config=config, auto_optimize=False)
        with dw.telemetry.span("test.root", "test"):
            dw.store.faults.arm("blob", operation="get")
            dw.store.put("a/blob", b"x")
            with_retries(
                lambda: dw.store.get("a/blob"),
                telemetry=dw.telemetry,
                label="unit_test",
                clock=dw.clock,
                seed=config.seed,
            )
        events = [
            e for s in dw.telemetry.spans for e in s.events if e.name == "retry"
        ]
        assert events
        assert events[0].attributes["label"] == "unit_test"
        assert events[0].attributes["backoff_s"] == pytest.approx(
            retry.RETRY_BASE_BACKOFF_S
        )
        histogram = dw.telemetry.metrics.histogram(
            "storage.retry_backoff_s", label="unit_test"
        )
        assert histogram.count >= 1


class TestCountedFaults:
    def test_counted_fault_fails_next_n(self):
        store = ObjectStore()
        store.faults.arm("target", operation="put", count=3)
        for __ in range(3):
            with pytest.raises(TransientStorageError):
                store.put("a/target", b"x")
        store.put("a/target", b"x")
        assert store.exists("a/target")

    def test_count_must_be_positive(self):
        store = ObjectStore()
        with pytest.raises(ValueError):
            store.faults.arm("x", count=0)

    def test_armed_remaining_tracks_budget(self):
        store = ObjectStore()
        store.faults.arm("a", count=2)
        store.faults.arm("b", count=1)
        assert store.faults.armed_remaining == 3
        with pytest.raises(TransientStorageError):
            store.put("a", b"x")
        assert store.faults.armed_remaining == 2

    def test_injected_counter_counts_all_faults(self):
        store = ObjectStore()
        store.faults.arm("a", count=2)
        for __ in range(2):
            with pytest.raises(TransientStorageError):
                store.put("a", b"x")
        assert store.faults.injected == 2


class TestPerOperationRates:
    def test_operation_rate_overrides_global(self, monkeypatch):
        monkeypatch.setattr(failures, "OPERATION_FAILURE_RATES", {"delete": 1.0})
        store = ObjectStore(config=StorageConfig(transient_failure_rate=0.0))
        store.put("a", b"x")  # puts never fail
        with pytest.raises(TransientStorageError):
            store.delete("a")

    def test_rate_for_falls_back_to_global(self, monkeypatch):
        monkeypatch.setattr(failures, "OPERATION_FAILURE_RATES", {"get": 0.75})
        store = ObjectStore(config=StorageConfig(transient_failure_rate=0.25))
        assert store.faults.rate_for("get") == 0.75
        assert store.faults.rate_for("put") == 0.25

    def test_quiesce_stops_random_injection(self):
        config = StorageConfig(transient_failure_rate=1.0)
        store = ObjectStore(config=config)
        with pytest.raises(TransientStorageError):
            store.put("a", b"x")
        store.faults.quiesce()
        store.put("a", b"x")
        assert store.exists("a")

    def test_faults_injected_metric(self):
        from repro import Warehouse

        dw = Warehouse(auto_optimize=False)
        dw.store.faults.arm("blob", operation="put")
        with pytest.raises(TransientStorageError):
            dw.store.put("a/blob", b"x")
        assert (
            dw.telemetry.metrics.value("storage.faults_injected", op="put") == 1
        )
