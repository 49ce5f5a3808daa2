"""The metrics sampler, the watchdog, and the zero-cost disabled path."""

import json

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, Warehouse
from repro.common.clock import SimulatedClock
from repro.common.errors import WriteConflictError
from repro.telemetry import (
    facade,
    MetricSample,
    MetricsSampler,
    Watchdog,
    WatchdogRule,
    default_rules,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import flatten_sample, series_value

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def batch(start, count):
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": ids.astype(np.float64)}


def sample(sample_id, at, values):
    return MetricSample(sample_id=sample_id, at=at, values=values)


class TestSampler:
    def test_ticks_on_the_simulated_clock(self):
        clock = SimulatedClock()
        metrics = MetricsRegistry()
        sampler = MetricsSampler(clock, metrics, interval_s=1.0)
        sampler.start()
        metrics.counter("txn.commits").inc()
        for _ in range(3):
            clock.advance(1.0)
        ids = [s.sample_id for s in sampler.samples]
        assert ids == [0, 1, 2]
        assert [s.at for s in sampler.samples] == [1.0, 2.0, 3.0]
        assert all(
            s.values["txn.commits"] == 1.0 for s in sampler.samples
        )

    def test_ring_buffer_evicts_oldest(self):
        clock = SimulatedClock()
        sampler = MetricsSampler(
            clock, MetricsRegistry(), interval_s=1.0, capacity=2
        )
        sampler.start()
        for _ in range(5):
            clock.advance(1.0)
        assert [s.sample_id for s in sampler.samples] == [3, 4]

    def test_stop_declines_to_rearm(self):
        clock = SimulatedClock()
        sampler = MetricsSampler(clock, MetricsRegistry(), interval_s=1.0)
        sampler.start()
        clock.advance(1.0)
        sampler.stop()
        clock.advance(5.0)
        assert len(sampler.samples) == 1
        # The stopped tick does not re-arm: the watcher list drains.
        clock.advance(5.0)
        assert not clock._watchers

    def test_export_jsonl_round_trips(self, tmp_path):
        clock = SimulatedClock()
        metrics = MetricsRegistry()
        sampler = MetricsSampler(clock, metrics, interval_s=1.0)
        sampler.start()
        metrics.counter("txn.commits").inc(3)
        clock.advance(1.0)
        path = sampler.export_jsonl(str(tmp_path / "metrics.jsonl"))
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert len(lines) == 1
        assert lines[0]["sample_id"] == 0
        assert lines[0]["values"]["txn.commits"] == 3.0

    def test_validation(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            MetricsSampler(clock, MetricsRegistry(), interval_s=0.0)
        with pytest.raises(ValueError):
            MetricsSampler(clock, MetricsRegistry(), capacity=0)


class TestSeriesMath:
    def test_flatten_expands_histograms(self):
        flat = flatten_sample(
            {
                "txn.commits": 2.0,
                "storage.request_latency_s{op=get}": {
                    "count": 4,
                    "sum": 2.0,
                    "min": 0.1,
                    "mean": 0.5,
                    "max": 1.0,
                    "p50": 0.4,
                    "p95": 0.9,
                    "p99": 1.0,
                },
            }
        )
        assert flat["txn.commits"] == 2.0
        assert flat["storage.request_latency_s{op=get}.count"] == 4.0
        assert flat["storage.request_latency_s{op=get}.p95"] == 0.9

    def test_series_value_sums_label_sets(self):
        values = {
            "txn.commit_failures{error=A}": 2.0,
            "txn.commit_failures{error=B}": 3.0,
            "txn.commit_failures_other": 99.0,
            "txn.commits": 1.0,
        }
        assert series_value(values, "txn.commit_failures") == 5.0

    def test_series_value_uses_histogram_sum(self):
        values = {"storage.retry_backoff_s{label=x}": {"sum": 7.5, "count": 3}}
        assert series_value(values, "storage.retry_backoff_s") == 7.5


class TestWatchdogUnit:
    def test_rate_rule_fires_on_delta(self):
        metrics = MetricsRegistry()
        dog = Watchdog(
            metrics,
            None,
            rules=[
                WatchdogRule(
                    name="spike",
                    metric="txn.commit_failures",
                    threshold=0.5,
                    mode="rate",
                )
            ],
        )
        dog.observe(sample(0, 1.0, {"txn.commit_failures{error=X}": 0.0}))
        assert dog.alerts == []  # rate undefined on the first sample
        dog.observe(sample(1, 2.0, {"txn.commit_failures{error=X}": 1.0}))
        assert [a["rule"] for a in dog.alerts] == ["spike"]
        assert dog.alerts[0]["value"] == 1.0
        assert metrics.value("watchdog.alerts", rule="spike") == 1.0

    def test_hold_requires_persistent_breach(self):
        dog = Watchdog(
            MetricsRegistry(),
            None,
            rules=[
                WatchdogRule(
                    name="linger",
                    metric="sto.unhealthy_tables",
                    threshold=1.0,
                    mode="value",
                    hold_s=2.0,
                )
            ],
        )
        dog.observe(sample(0, 0.0, {"sto.unhealthy_tables": 1.0}))
        dog.observe(sample(1, 1.0, {"sto.unhealthy_tables": 1.0}))
        assert dog.alerts == []  # breached, but not held long enough
        dog.observe(sample(2, 2.0, {"sto.unhealthy_tables": 1.0}))
        assert [a["rule"] for a in dog.alerts] == ["linger"]

    def test_recovery_resets_hold(self):
        dog = Watchdog(
            MetricsRegistry(),
            None,
            rules=[
                WatchdogRule(
                    name="linger",
                    metric="sto.unhealthy_tables",
                    threshold=1.0,
                    mode="value",
                    hold_s=2.0,
                )
            ],
        )
        dog.observe(sample(0, 0.0, {"sto.unhealthy_tables": 1.0}))
        dog.observe(sample(1, 1.0, {"sto.unhealthy_tables": 0.0}))
        dog.observe(sample(2, 2.0, {"sto.unhealthy_tables": 1.0}))
        assert dog.alerts == []  # the breach clock restarted at t=2

    def test_cooldown_rate_limits_alerts(self):
        dog = Watchdog(
            MetricsRegistry(),
            None,
            rules=[
                WatchdogRule(
                    name="noisy",
                    metric="sto.unhealthy_tables",
                    threshold=1.0,
                    mode="value",
                    cooldown_s=5.0,
                )
            ],
        )
        for i in range(4):
            dog.observe(sample(i, float(i), {"sto.unhealthy_tables": 2.0}))
        assert len(dog.alerts) == 1
        dog.observe(sample(9, 9.0, {"sto.unhealthy_tables": 2.0}))
        assert len(dog.alerts) == 2

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            WatchdogRule(name="x", metric="m", threshold=1.0, comparison="eq")
        with pytest.raises(ValueError):
            WatchdogRule(name="x", metric="m", threshold=1.0, mode="slope")
        with pytest.raises(ValueError):
            WatchdogRule(name="", metric="m", threshold=1.0)

    def test_default_rules_cover_the_seven_failure_modes(self):
        rules = {rule.name: rule for rule in default_rules()}
        assert set(rules) == {
            "abort_rate_spike",
            "red_table_lingering",
            "retry_backoff_saturation",
            "admission_queue_saturation",
            "plan_latency_regression",
            "integrity_unrepairable",
            "commit_lock_contention",
        }
        assert rules["abort_rate_spike"].mode == "rate"
        assert rules["red_table_lingering"].hold_s > 0
        assert rules["admission_queue_saturation"].metric == "service.queue_depth"
        assert rules["admission_queue_saturation"].hold_s > 0
        assert rules["plan_latency_regression"].mode == "rate"
        assert (
            rules["plan_latency_regression"].metric
            == "querystore.plan_regressions"
        )
        assert rules["integrity_unrepairable"].mode == "value"
        assert (
            rules["integrity_unrepairable"].metric
            == "storage.integrity_unrepairable"
        )
        assert rules["commit_lock_contention"].mode == "rate"
        assert (
            rules["commit_lock_contention"].metric == "sqldb.commit_lock_wait_s"
        )


class TestWatchdogEndToEnd:
    @pytest.fixture
    def watched_dw(self, config, monkeypatch):
        monkeypatch.setattr(facade, "SAMPLE_INTERVAL_S", 1.0)
        monkeypatch.setattr(facade, "WATCHDOG_ENABLED", True)
        return Warehouse(config=config, auto_optimize=False)

    def test_conflict_workload_fires_abort_rate_alert(self, watched_dw):
        dw = watched_dw
        alerts = []
        dw.context.bus.subscribe(
            "watchdog.alert", lambda event: alerts.append(event.payload)
        )
        writer, loser = dw.session(), dw.session()
        writer.create_table("t", SCHEMA)
        writer.insert("t", batch(0, 20))
        dw.clock.advance(1.0)  # baseline sample: zero failures

        # Table-granularity conflict: both transactions delete from t;
        # the first committer wins, the loser's commit raises and bumps
        # txn.commit_failures — one failure over the next one-second
        # sample window is a 1.0/s rate, over the 0.5/s threshold.
        writer.begin()
        writer.delete("t", BinOp("==", Col("id"), Lit(1)))
        loser.begin()
        loser.delete("t", BinOp("==", Col("id"), Lit(2)))
        writer.commit()
        with pytest.raises(WriteConflictError):
            loser.commit()
        dw.clock.advance(1.0)

        assert [a["rule"] for a in alerts] == ["abort_rate_spike"]
        assert alerts[0]["metric"] == "txn.commit_failures"
        assert alerts[0]["value"] >= 0.5
        assert (
            dw.telemetry.metrics.value(
                "watchdog.alerts", rule="abort_rate_spike"
            )
            == 1.0
        )
        # The alert is queryable through the DMV surface too.
        row = dw.session().sql(
            "SELECT value FROM sys.dm_metrics WHERE name = 'watchdog.alerts'"
        )
        assert float(row["value"][0]) == 1.0

    def test_clean_path_stays_silent(self, watched_dw):
        dw = watched_dw
        alerts = []
        dw.context.bus.subscribe(
            "watchdog.alert", lambda event: alerts.append(event.payload)
        )
        session = dw.session()
        session.create_table("t", SCHEMA)
        for i in range(5):
            session.insert("t", batch(i * 10, 10))
            dw.clock.advance(1.0)
        assert alerts == []
        assert dw.telemetry.watchdog.alerts == []


class TestZeroCostDisabled:
    def test_disabled_sampler_allocates_nothing(self, config):
        assert facade.SAMPLE_INTERVAL_S == 0.0  # the default
        dw = Warehouse(config=config, auto_optimize=False)
        telemetry = dw.telemetry
        assert telemetry.sampler is None
        assert telemetry.watchdog is None
        assert dw.clock._watchers == []
        attributes_before = sorted(vars(telemetry))

        session = dw.session()
        session.create_table("t", SCHEMA)
        session.insert("t", batch(0, 50))
        dw.clock.advance(60.0)

        # No per-tick work happened and nothing was lazily attached: the
        # facade grew no attributes, armed no clock watcher, and the
        # history view stays empty.
        assert sorted(vars(telemetry)) == attributes_before
        assert telemetry.sampler is None
        assert telemetry.watchdog is None
        assert dw.clock._watchers == []
        history = session.sql("SELECT * FROM sys.dm_metrics_history")
        assert len(history["sample_id"]) == 0

    def test_watchdog_requires_sampler(self, config, monkeypatch):
        monkeypatch.setattr(facade, "WATCHDOG_ENABLED", True)
        dw = Warehouse(config=config, auto_optimize=False)
        assert dw.telemetry.sampler is None
        assert dw.telemetry.watchdog is None
        assert dw.clock._watchers == []
