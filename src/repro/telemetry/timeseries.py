"""Metrics time series: periodic sampling and declarative watchdogs.

:class:`MetricsSampler` snapshots the metrics registry on the simulated
clock at a fixed interval into a bounded ring buffer — the data behind
the ``sys.dm_metrics_history`` view.  A :class:`Watchdog` subscribes to
those samples and evaluates declarative :class:`WatchdogRule` thresholds
(on absolute values or on per-second rates between consecutive samples),
emitting ``watchdog.alert`` bus events plus a ``watchdog.alerts`` counter
when a rule fires.  Both are inert unless explicitly constructed and
started, so a deployment with sampling off pays nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.common.clock import SimulatedClock
from repro.common.events import EventBus
from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class MetricSample:
    """One point-in-time snapshot of the metrics registry."""

    #: Monotonically increasing sample number (survives ring eviction).
    sample_id: int
    #: Simulated time the sample was taken.
    at: float
    #: :meth:`MetricsRegistry.snapshot` output — rendered series key to
    #: number (counters/gauges) or summary dict (histograms).
    values: Dict[str, Any]


def flatten_sample(values: Dict[str, Any]) -> Dict[str, float]:
    """One scalar series per key; histogram summaries become suffixed keys.

    A histogram ``h{...}`` expands to ``h{...}.count``, ``.sum``, ``.p50``,
    ``.p95`` and ``.p99`` so time-series consumers only ever see numbers.
    """
    out: Dict[str, float] = {}
    for key, value in values.items():
        if isinstance(value, dict):
            for stat in ("count", "sum", "p50", "p95", "p99"):
                out[f"{key}.{stat}"] = float(value[stat])
        else:
            out[key] = float(value)
    return out


def series_value(values: Dict[str, Any], metric: str) -> float:
    """Total of every series of one metric family within a sample.

    Label sets are summed (``txn.commit_failures{error=X}`` and ``{error=Y}``
    both count); a histogram contributes its ``sum``, so rate rules over
    histograms measure accumulation per second (e.g. backoff saturation).
    """
    total = 0.0
    prefix = metric + "{"
    for key, value in values.items():
        if key != metric and not key.startswith(prefix):
            continue
        total += value["sum"] if isinstance(value, dict) else value
    return total


class MetricsSampler:
    """Periodic metrics snapshots into a bounded ring buffer.

    The tick runs on the simulated clock's watcher mechanism: each firing
    takes one sample, notifies observers, and re-arms the next tick — no
    real event loop, no catch-up storm after a large ``advance``.  The
    clock has no cancel API, so :meth:`stop` sets a flag the next firing
    observes (and then declines to re-arm).
    """

    def __init__(
        self,
        clock: SimulatedClock,
        metrics: MetricsRegistry,
        interval_s: float = 1.0,
        capacity: int = 512,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampler interval_s must be positive")
        if capacity <= 0:
            raise ValueError("sampler capacity must be positive")
        self._clock = clock
        self._metrics = metrics
        self.interval_s = float(interval_s)
        self._ring: Deque[MetricSample] = deque(maxlen=capacity)
        self._observers: List[Callable[[MetricSample], None]] = []
        self._next_id = 0
        self._armed = False
        self._stopped = False

    def start(self) -> None:
        """Arm the periodic tick (idempotent)."""
        if self._armed:
            return
        self._armed = True
        self._stopped = False
        self._clock.call_at(self._clock.now + self.interval_s, self._tick)

    def stop(self) -> None:
        """Stop sampling: the next tick is a no-op and does not re-arm."""
        self._stopped = True
        self._armed = False

    def subscribe(self, observer: Callable[[MetricSample], None]) -> None:
        """Call ``observer(sample)`` after every new sample."""
        self._observers.append(observer)

    def sample_now(self) -> MetricSample:
        """Take one sample immediately (the periodic tick calls this too)."""
        sample = MetricSample(
            sample_id=self._next_id,
            at=self._clock.now,
            values=self._metrics.snapshot(),
        )
        self._next_id += 1
        self._ring.append(sample)
        for observer in list(self._observers):
            observer(sample)
        return sample

    def _tick(self, now: float) -> None:
        if self._stopped:
            return
        self.sample_now()
        self._clock.call_at(now + self.interval_s, self._tick)

    @property
    def samples(self) -> List[MetricSample]:
        """The retained samples, oldest first."""
        return list(self._ring)


@dataclass(frozen=True)
class WatchdogRule:
    """One declarative threshold over the sampled time series.

    ``mode="value"`` compares the metric's current total against the
    threshold; ``mode="rate"`` compares its per-second delta between
    consecutive samples.  ``hold_s`` requires the breach to persist that
    long before alerting (a RED table must *linger*); ``cooldown_s``
    rate-limits repeat alerts while the breach continues.
    """

    name: str
    metric: str
    threshold: float
    comparison: str = "gte"
    mode: str = "value"
    hold_s: float = 0.0
    cooldown_s: float = 0.0

    def __post_init__(self) -> None:
        if self.comparison not in ("gte", "lte"):
            raise ValueError(f"unknown comparison {self.comparison!r}")
        if self.mode not in ("value", "rate"):
            raise ValueError(f"unknown watchdog mode {self.mode!r}")
        if not self.name:
            raise ValueError("watchdog rule needs a name")


class Watchdog:
    """Evaluates :class:`WatchdogRule` thresholds over incoming samples.

    Subscribe :meth:`observe` to a :class:`MetricsSampler`.  Alerts are
    published as ``watchdog.alert`` bus events, counted in the
    ``watchdog.alerts`` metric (labeled by rule), and retained in
    :attr:`alerts` for direct inspection.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        bus: Optional[EventBus],
        rules: Iterable[WatchdogRule] = (),
    ) -> None:
        self._metrics = metrics
        self._bus = bus
        self.rules: List[WatchdogRule] = list(rules)
        self._previous: Optional[MetricSample] = None
        self._first_breach_at: Dict[str, float] = {}
        self._last_alert_at: Dict[str, float] = {}
        #: Alert records, oldest first: rule/metric/value/threshold/at.
        self.alerts: List[Dict[str, Any]] = []

    def observe(self, sample: MetricSample) -> None:
        """Evaluate every rule against one new sample."""
        previous = self._previous
        self._previous = sample
        for rule in self.rules:
            value = self._evaluate(rule, sample, previous)
            if value is None:
                continue
            breached = (
                value >= rule.threshold
                if rule.comparison == "gte"
                else value <= rule.threshold
            )
            if not breached:
                self._first_breach_at.pop(rule.name, None)
                continue
            first = self._first_breach_at.setdefault(rule.name, sample.at)
            if sample.at - first < rule.hold_s:
                continue
            last = self._last_alert_at.get(rule.name)
            if last is not None and sample.at - last < rule.cooldown_s:
                continue
            self._last_alert_at[rule.name] = sample.at
            self._alert(rule, value, sample.at)

    @staticmethod
    def _evaluate(
        rule: WatchdogRule,
        sample: MetricSample,
        previous: Optional[MetricSample],
    ) -> Optional[float]:
        current = series_value(sample.values, rule.metric)
        if rule.mode == "value":
            return current
        if previous is None:
            return None
        elapsed = sample.at - previous.at
        if elapsed <= 0:
            return None
        return (current - series_value(previous.values, rule.metric)) / elapsed

    def _alert(self, rule: WatchdogRule, value: float, at: float) -> None:
        record = {
            "rule": rule.name,
            "metric": rule.metric,
            "value": value,
            "threshold": rule.threshold,
            "mode": rule.mode,
            "at": at,
        }
        self.alerts.append(record)
        self._metrics.counter("watchdog.alerts", rule=rule.name).inc()
        if self._bus is not None:
            self._bus.publish("watchdog.alert", **record)


def default_rules() -> List[WatchdogRule]:
    """The stock rule set wired in by ``facade.WATCHDOG_ENABLED``.

    * ``abort_rate_spike`` — commit failures accumulating faster than
      0.5 per simulated second.
    * ``red_table_lingering`` — at least one table stuck below the
      storage-health thresholds for 120 s.
    * ``retry_backoff_saturation`` — more than 0.5 seconds of retry
      backoff charged per second of simulated time.
    * ``admission_queue_saturation`` — the gateway's admission queues
      holding at least 100 requests continuously for 30 s (load shedding
      should engage long before the queues pin at capacity).
    * ``plan_latency_regression`` — query-store fingerprints whose recent
      p95 regressed past their stored baseline, accumulating faster than
      0.01 per simulated second (requires
      ``TelemetryConfig.query_store_enabled``; the counter never moves
      otherwise).
    * ``integrity_unrepairable`` — the scrubber found at least one corrupt
      blob with no redundant source to rebuild from (permanent data loss;
      fires immediately, no hold).
    * ``commit_lock_contention`` — committers accumulating more than 0.5
      seconds of commit-lock queue wait per second of simulated time: the
      serialized validation phase has become the bottleneck (the evidence
      the group-commit work needs).
    """
    return [
        WatchdogRule(
            name="abort_rate_spike",
            metric="txn.commit_failures",
            threshold=0.5,
            mode="rate",
        ),
        WatchdogRule(
            name="red_table_lingering",
            metric="sto.unhealthy_tables",
            threshold=1.0,
            mode="value",
            hold_s=120.0,
        ),
        WatchdogRule(
            name="retry_backoff_saturation",
            metric="storage.retry_backoff_s",
            threshold=0.5,
            mode="rate",
        ),
        WatchdogRule(
            name="admission_queue_saturation",
            metric="service.queue_depth",
            threshold=100.0,
            mode="value",
            hold_s=30.0,
        ),
        WatchdogRule(
            name="plan_latency_regression",
            metric="querystore.plan_regressions",
            threshold=0.01,
            mode="rate",
        ),
        WatchdogRule(
            name="integrity_unrepairable",
            metric="storage.integrity_unrepairable",
            threshold=1.0,
            mode="value",
        ),
        WatchdogRule(
            name="commit_lock_contention",
            metric="sqldb.commit_lock_wait_s",
            threshold=0.5,
            mode="rate",
        ),
    ]
