"""The idle dispatcher skips its empty polls exactly.

``PollingGateway`` keeps the dispatcher that resumes at every idle poll
(one ``IDLE_POLL_S`` sleep at a time); every scenario runs on it and on
the real :class:`Gateway`, and everything observable — admission
decisions, the request ledger, sampler instants, GC firings, the load
report, the final clock — must be identical, while the real gateway
takes a bounded number of scheduler steps per request.
"""

import math

import pytest

from repro import PolarisConfig, Warehouse
from repro.common.clock import SimulatedClock
from repro.service import Gateway
from repro.service.gateway import IDLE_POLL_S
from repro.service.tasklets import TaskletScheduler, WakeAt
from repro.workloads.service_load import ServiceLoadGenerator


class PollingGateway(Gateway):
    """The reference: an idle dispatcher that sleeps one poll at a time."""

    def _dispatch_body(self):
        while True:
            request, expired = self.admission.next_request()
            for timed_out in expired:
                self._finish(timed_out, "timed_out")
                if self._telemetry.metering:
                    self._telemetry.metrics.counter(
                        "service.timeouts",
                        workload_class=timed_out.workload_class,
                    ).inc()
                self._telemetry.record_wait(
                    "queue_deadline",
                    self._context.clock.now - timed_out.submitted_at,
                    tenant=timed_out.tenant,
                    workload_class=timed_out.workload_class,
                )
            if self._telemetry.metering:
                self._telemetry.metrics.gauge("service.queue_depth").set(
                    self.admission.queue_depth()
                )
            if request is None:
                if self.scheduler.pending == 0:
                    return None
                yield IDLE_POLL_S
                continue
            self._execute(request)
            yield self._config.dispatch_interval_s


def warehouse(seed, sampled=False, service=None):
    config = PolarisConfig()
    config.seed = seed
    for key, value in (service or {}).items():
        setattr(config.service, key, value)
    if sampled:
        config.telemetry.sample_interval_s = 0.7
        config.telemetry.watchdog_enabled = True
    dw = Warehouse(config=config, auto_optimize=sampled)
    if sampled:
        dw.sto.schedule_periodic_gc(5.0)
    return dw


def observe(dw, gateway, report=None):
    """Everything a skipped poll could have changed, as comparable data."""
    sampler = dw.context.telemetry.sampler
    return {
        "decisions": list(gateway.admission.decision_log),
        "rows": gateway.request_rows(),
        "samples": [s.at for s in sampler.samples] if sampler else None,
        "gc_reports": len(dw.sto.gc_reports),
        "report": report.as_dict() if report else None,
        "now": dw.clock.now,
    }


def run_load(gateway_class, seed, sampled=False, **kwargs):
    dw = warehouse(seed, sampled=sampled, service=kwargs.pop("service", None))
    gateway = gateway_class(dw.context, seed=seed)
    kwargs.setdefault("transactional_clients", 2)
    kwargs.setdefault("analytical_clients", 1)
    kwargs.setdefault("requests_per_client", 3)
    kwargs.setdefault("mean_think_s", 4.0)
    generator = ServiceLoadGenerator(
        gateway, seed=seed, scale_factor=0.02, **kwargs
    )
    report = generator.run()
    return observe(dw, gateway, report), gateway.scheduler.steps, report.submitted


class TestSkipIsExact:
    @pytest.mark.parametrize("seed", [0, 11, 29])
    def test_seeded_load_matches_polling(self, seed):
        polled, polled_steps, __ = run_load(PollingGateway, seed)
        skipped, steps, submitted = run_load(Gateway, seed)
        assert skipped == polled
        assert polled["report"]["completed"] > 0
        # Polling pays one step per idle poll; the skip pays per request.
        assert steps <= 4 * submitted + 8
        assert polled_steps > 10 * steps

    @pytest.mark.parametrize("seed", [3, 17])
    def test_sampler_watchdog_and_periodic_gc_match_polling(self, seed):
        polled, __, __ = run_load(PollingGateway, seed, sampled=True)
        skipped, steps, submitted = run_load(Gateway, seed, sampled=True)
        assert skipped == polled
        assert len(polled["samples"]) > 10
        assert polled["gc_reports"] > 0
        # Each watcher firing is an instant something can change at, so
        # the idle dispatcher lands there once.
        watcher_firings = len(polled["samples"]) + polled["gc_reports"]
        assert steps <= 4 * submitted + watcher_firings + 8

    def test_overload_with_shedding_and_deadlines_matches_polling(self):
        overload = dict(
            service={"tokens_per_s": 0.5, "token_burst": 2.0,
                     "queue_deadline_s": 2.0},
            transactional_clients=4,
            analytical_clients=2,
            mean_think_s=0.3,
        )
        polled, __, __ = run_load(PollingGateway, 5, **overload)
        skipped, __, __ = run_load(Gateway, 5, **overload)
        assert skipped == polled
        assert polled["report"]["shed"] > 0

    @pytest.mark.parametrize("until", [7.0, 12.345, 20.0])
    def test_run_until_then_external_submit_matches_polling(self, until):
        def scenario(gateway_class):
            dw = warehouse(1)
            gateway = gateway_class(dw.context, seed=1)

            def client(delays):
                for delay in delays:
                    yield delay
                    gateway.submit("tenant_a", "transactional", lambda s: None)

            gateway.scheduler.spawn(client([3.0, 15.0]), name="client")
            gateway.run(until=until)
            stopped_at = dw.clock.now
            gateway.submit("tenant_b", "analytical", lambda s: None)
            gateway.run()
            return stopped_at, observe(dw, gateway)

        polled = scenario(PollingGateway)
        assert scenario(Gateway) == polled
        assert polled[0] <= until
        assert [r["status"] for r in polled[1]["rows"]] == ["completed"] * 3


def sleeps(*values):
    """A tasklet body yielding ``values`` in turn."""
    for value in values:
        yield value


class TestNextPoll:
    def scheduler(self):
        return TaskletScheduler(SimulatedClock(), seed=0)

    def test_lands_on_the_first_grid_instant_at_or_after_the_horizon(self):
        scheduler = self.scheduler()
        scheduler.spawn(sleeps(), delay_s=1.0)
        wake = scheduler.next_poll(0.01, 0.01)
        expected = 0.01
        while expected < 1.0:
            expected += 0.01
        assert isinstance(wake, WakeAt)
        assert wake == expected  # the chain of sums, not 1.0 or 100 * 0.01

    def test_a_clock_watcher_bounds_the_skip(self):
        scheduler = self.scheduler()
        scheduler.spawn(sleeps(), delay_s=50.0)
        scheduler.clock.call_at(0.5, lambda now: None)
        assert 0.5 <= scheduler.next_poll(0.01, 0.01) < 0.51

    def test_nothing_else_pending_polls_as_asked(self):
        assert self.scheduler().next_poll(0.25, 0.01) == 0.25

    def test_wake_at_is_an_absolute_instant(self):
        clock = SimulatedClock()
        scheduler = TaskletScheduler(clock)
        seen = []

        def body():
            yield 2.0
            seen.append(clock.now)
            yield WakeAt(3.5)
            seen.append(clock.now)
            yield WakeAt(1.0)  # already past: resumes immediately
            seen.append(clock.now)

        scheduler.spawn(body())
        scheduler.run()
        assert seen == [2.0, 3.5, 3.5]
        assert type(clock.now) is float


class TestNonFiniteWakes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, WakeAt(math.nan),
                                     WakeAt(math.inf)])
    def test_scheduler_names_the_tasklet(self, bad):
        scheduler = TaskletScheduler(SimulatedClock())
        scheduler.spawn(sleeps(1.0, bad), name="sleeper")
        with pytest.raises(ValueError, match="'sleeper'"):
            scheduler.run()

    def test_nan_spawn_delay_rejected(self):
        scheduler = TaskletScheduler(SimulatedClock())
        with pytest.raises(ValueError, match="'late'"):
            scheduler.spawn(sleeps(), name="late", delay_s=math.nan)
