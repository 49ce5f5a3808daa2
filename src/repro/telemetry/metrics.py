"""The metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` per deployment unifies the accounting that
used to live in ad-hoc structures (``IoMeter`` request/byte totals, the
latency model's charged time): every instrument is addressed by a name
plus a label set, so the same counter family can be sliced per operation
kind, per pool, or per table.  Histograms keep a bounded sample reservoir
and report p50/p95/p99 summaries — the percentile view the paper's
evaluation (and any production dashboard) leans on.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return name, tuple(sorted(labels.items()))


def format_key(key: LabelKey) -> str:
    """Render ``(name, labels)`` as ``name{k=v,...}`` (name alone if bare)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Adjust the current value by ``amount``."""
        self.value += amount


class Histogram:
    """A distribution with exact count/sum and sampled percentiles.

    Up to ``max_samples`` observations are kept verbatim; beyond that,
    reservoir sampling (seeded, deterministic) keeps the percentile
    estimates unbiased without unbounded memory.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_samples", "_max", "_rng")

    #: Default reservoir seed when no deployment seed is threaded in.
    DEFAULT_SEED = 0x5EED

    def __init__(self, max_samples: int = 4096, seed: int = DEFAULT_SEED) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._samples: List[float] = []
        self._max = max_samples
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._samples) < self._max:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._max:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) over the retained samples."""
        return percentile(self._samples, q)

    def summary(self) -> Dict[str, float]:
        """count/sum/min/mean/max plus p50, p95 and p99."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.minimum is not None else 0.0,
            "mean": self.mean,
            "max": self.maximum if self.maximum is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create store of instruments keyed by (name, labels).

    ``seed`` parameterizes every histogram's reservoir-sampling PRNG; the
    deployment threads its ``PolarisConfig.seed`` here so that two runs
    with the same config report identical percentile estimates.
    """

    def __init__(self, seed: int = Histogram.DEFAULT_SEED) -> None:
        self._seed = seed
        self._counters: Dict[LabelKey, Counter] = {}
        self._gauges: Dict[LabelKey, Gauge] = {}
        self._histograms: Dict[LabelKey, Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``name``/``labels`` (created on first use)."""
        key = _key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``name``/``labels`` (created on first use)."""
        key = _key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for ``name``/``labels`` (created on first use)."""
        key = _key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(seed=self._seed)
        return histogram

    # -- reading -------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Current counter or gauge value (0.0 if never recorded)."""
        key = _key(name, labels)
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0.0

    def values(self, name: str) -> Dict[str, float]:
        """All counter/gauge series of one family, keyed by rendered labels."""
        out: Dict[str, float] = {}
        for store in (self._counters, self._gauges):
            for key, instrument in store.items():
                if key[0] == name:
                    out[format_key(key)] = instrument.value
        return out

    def instruments(self):
        """Yield ``(kind, name, labels, instrument)`` for every instrument.

        ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; ``labels``
        is a plain dict.  Ordered by kind then key, so consumers (the
        ``sys.dm_metrics`` view) are deterministic.
        """
        for kind, store in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            for key, instrument in sorted(store.items()):
                yield kind, key[0], dict(key[1]), instrument

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument's current state as one flat JSON-able dict.

        Counters and gauges map to numbers; histograms map to their
        :meth:`Histogram.summary` dicts.
        """
        out: Dict[str, Any] = {}
        for key, counter in sorted(self._counters.items()):
            out[format_key(key)] = counter.value
        for key, gauge in sorted(self._gauges.items()):
            out[format_key(key)] = gauge.value
        for key, histogram in sorted(self._histograms.items()):
            out[format_key(key)] = histogram.summary()
        return out


def snapshot_delta(
    after: Dict[str, Any], before: Dict[str, Any]
) -> Dict[str, float]:
    """Numeric differences between two :meth:`MetricsRegistry.snapshot` calls.

    Histogram summaries are skipped; counters/gauges report
    ``after - before`` (missing keys count as 0), zero deltas elided.
    """
    out: Dict[str, float] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            continue
        diff = value - before.get(key, 0.0)
        if diff:
            out[key] = diff
    return out
