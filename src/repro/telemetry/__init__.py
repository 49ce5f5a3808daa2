"""End-to-end telemetry: hierarchical spans, metrics, trace export.

The subsystem has three parts:

* :mod:`repro.telemetry.spans` — a hierarchical span tracer over the
  simulated clock (contextvar-propagated parents, per-span attributes and
  events);
* :mod:`repro.telemetry.metrics` — an always-on registry of counters,
  gauges and p50/p95/p99 histograms (object-store request and byte
  totals stay in ``store.meter``, the deployment's one copy);
* :mod:`repro.telemetry.exporters` — JSONL span dumps and Chrome
  trace-event files (loadable in Perfetto, one process row per DCP node).

:class:`Telemetry` (from :mod:`repro.telemetry.facade`) bundles all three
per deployment and is reachable as ``context.telemetry`` everywhere a
:class:`~repro.fe.context.ServiceContext` flows.  Enable tracing with
``PolarisConfig().telemetry.enabled = True``.
"""

from repro.common.config import TelemetryConfig
from repro.telemetry.critical_path import (
    analyze as analyze_critical_path,
    format_report as format_critical_path_report,
    load_trace,
    top_serialization_kind,
)
from repro.telemetry.exporters import (
    chrome_trace,
    combined_chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.facade import Telemetry
from repro.telemetry.introspection import Introspector, TransactionLedger
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.names import (
    METRIC_NAMES,
    SPAN_NAMES,
    SPAN_PREFIXES,
    WAIT_NAMES,
)
from repro.telemetry.querystore import (
    QueryProfile,
    QueryStore,
    fingerprint,
    normalize_sql,
    plan_fingerprint,
)
from repro.telemetry.spans import Span, SpanEvent, Tracer
from repro.telemetry.timeseries import (
    MetricSample,
    MetricsSampler,
    Watchdog,
    WatchdogRule,
    default_rules,
)
from repro.telemetry.waits import WaitStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Introspector",
    "METRIC_NAMES",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSampler",
    "QueryProfile",
    "QueryStore",
    "SPAN_NAMES",
    "SPAN_PREFIXES",
    "Span",
    "SpanEvent",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "TransactionLedger",
    "WAIT_NAMES",
    "WaitStats",
    "Watchdog",
    "WatchdogRule",
    "analyze_critical_path",
    "chrome_trace",
    "combined_chrome_trace",
    "default_rules",
    "fingerprint",
    "format_critical_path_report",
    "load_trace",
    "normalize_sql",
    "plan_fingerprint",
    "spans_to_jsonl",
    "top_serialization_kind",
    "write_chrome_trace",
    "write_jsonl",
]
