"""Central configuration for a Polaris deployment.

One :class:`PolarisConfig` instance parameterizes an entire warehouse.  It
holds only the knobs some workload, benchmark, example or tool sets:
fault rate, DCP cost-model coefficients, STO trigger thresholds, retention,
collector switches, conflict granularity and data layout.  Every other
tunable is a named constant in the one module that reads it (for example
``repro.storage.latency.REQUEST_LATENCY_S``); docs/API.md lists both.
Defaults are chosen so that the benchmark harness reproduces the *shapes*
of the paper's figures at laptop scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real


@dataclass(slots=True)
class StorageConfig:
    """Fault injection of the simulated object store (OneLake/ADLS)."""

    #: Probability a request fails transiently (0 disables fault injection).
    transient_failure_rate: float = 0.0


@dataclass(slots=True)
class DcpConfig:
    """Cost model and topology size of the compute platform."""

    #: Simulated seconds of CPU cost to process one million rows in a task.
    seconds_per_million_rows: float = 1.2
    #: Fixed per-source-file read overhead during loads (simulated seconds).
    per_file_overhead_s: float = 0.30
    #: Number of nodes in a fixed (non-elastic) topology.
    fixed_nodes: int = 4
    #: Target millions of rows of work per node when sizing elastically.
    rows_per_node_million: float = 2.0


@dataclass(slots=True)
class StoConfig:
    """Trigger thresholds for autonomous storage optimizations (Section 5)."""

    #: A data file is "low quality" below this row count (small-file rule).
    min_healthy_rows_per_file: int = 50_000
    #: ... or above this fraction of deleted rows (fragmentation rule).
    max_deleted_fraction: float = 0.20
    #: Checkpoint a table once it accumulates this many new manifests.
    checkpoint_manifest_threshold: int = 10
    #: How often the STO polls its triggers (simulated seconds).
    poll_interval_s: float = 30.0
    #: Retention period for removed files before GC deletes them (seconds).
    retention_period_s: float = 7 * 24 * 3600.0


@dataclass(slots=True)
class TelemetryConfig:
    """End-to-end observability switches (tracing, collectors).

    The metrics registry always records (cheap dict increments), so no
    switch here governs it.  ``enabled`` turns on the hierarchical span
    tracer; the query store and wait statistics are each built only when
    their own switch asks for them.  With all of them off, an instrumented
    site costs a counter update and a few attribute checks.
    """

    #: Master switch for hierarchical span tracing.
    enabled: bool = False
    #: Enable the query store: fingerprinted per-statement profiles with
    #: per-operator cardinality feedback, surfaced as sys.dm_exec_* views.
    #: Off (the default) means no store is constructed.
    query_store_enabled: bool = False
    #: Enable wait statistics: every blocking point (commit lock, admission
    #: queues, retry backoff, task dispatch, ...) records how long it
    #: stalled the simulated clock, attributed per tenant, workload class
    #: and query fingerprint, surfaced as ``sys.dm_wait_stats`` and
    #: ``sys.dm_exec_query_waits``.  Off (the default) means no collector
    #: is constructed and every instrumented site records into a no-op.
    wait_stats_enabled: bool = False


@dataclass(slots=True)
class TransactionConfig:
    """Transaction-manager behaviour (Section 4)."""

    #: Conflict-detection granularity: "table" (Section 4.1) or "file"
    #: (Section 4.4.1).
    conflict_granularity: str = "table"


#: Integer knobs and the least value each may take.
_INTEGER_KNOBS = (
    ("dcp.fixed_nodes", 1),
    ("sto.min_healthy_rows_per_file", 0),
    ("sto.checkpoint_manifest_threshold", 1),
    ("rows_per_cell", 1),
    ("row_group_size", 1),
    ("distributions", 1),
    ("seed", 0),
)

#: Real-valued knobs and the closed range each must lie in.  Every one is
#: a rate, a fraction or a duration on the simulated clock, where NaN or
#: an infinity makes an event never due or every request fail.
_REAL_KNOBS = (
    ("storage.transient_failure_rate", 0.0, 1.0),
    ("dcp.seconds_per_million_rows", 0.0, math.inf),
    ("dcp.per_file_overhead_s", 0.0, math.inf),
    ("sto.max_deleted_fraction", 0.0, 1.0),
    ("sto.poll_interval_s", 0.0, math.inf),
    ("sto.retention_period_s", 0.0, math.inf),
)


@dataclass(slots=True)
class PolarisConfig:
    """Top-level configuration bundle for a warehouse instance."""

    storage: StorageConfig = field(default_factory=StorageConfig)
    dcp: DcpConfig = field(default_factory=DcpConfig)
    sto: StoConfig = field(default_factory=StoConfig)
    txn: TransactionConfig = field(default_factory=TransactionConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Target rows per data cell; drives how DML output is split into files.
    rows_per_cell: int = 100_000
    #: Rows per row group inside data files (zone-map granularity).
    row_group_size: int = 65_536
    #: Number of hash distributions (buckets) for cell placement.
    distributions: int = 16
    #: Seed shared by all deterministic generators in the deployment.
    seed: int = 0

    def _knob(self, path: str):
        section, __, name = path.rpartition(".")
        return getattr(getattr(self, section) if section else self, name)

    def validate(self) -> None:
        """Raise ``ValueError`` on a setting outside its range."""
        if self.txn.conflict_granularity not in ("table", "file"):
            raise ValueError(
                f"unknown conflict granularity {self.txn.conflict_granularity!r}"
            )
        for path, least in _INTEGER_KNOBS:
            value = self._knob(path)
            if (
                isinstance(value, bool)
                or not isinstance(value, Integral)
                or value < least
            ):
                raise ValueError(f"{path} must be an integer >= {least}")
        for path, low, high in _REAL_KNOBS:
            value = self._knob(path)
            if not (
                isinstance(value, Real)
                and math.isfinite(value)
                and low <= value <= high
            ):
                raise ValueError(f"{path} must be finite and in [{low}, {high}]")
        rows = self.dcp.rows_per_node_million
        if not (isinstance(rows, Real) and math.isfinite(rows) and rows > 0):
            raise ValueError("dcp.rows_per_node_million must be positive and finite")
