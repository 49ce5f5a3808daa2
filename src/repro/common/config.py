"""Central configuration for a Polaris deployment.

One :class:`PolarisConfig` instance parameterizes an entire warehouse:
storage latencies, DCP cost-model coefficients, STO trigger thresholds,
retention, and conflict granularity.  Defaults are chosen so that the
benchmark harness reproduces the *shapes* of the paper's figures at
laptop scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StorageConfig:
    """Latency/cost model of the simulated object store (OneLake/ADLS)."""

    #: Fixed per-request latency in simulated seconds.
    request_latency_s: float = 0.004
    #: Additional latency per MiB transferred.
    per_mib_latency_s: float = 0.010
    #: Probability a request fails transiently (0 disables fault injection).
    transient_failure_rate: float = 0.0
    #: Per-operation overrides of ``transient_failure_rate``, keyed by the
    #: store operation name (``put``, ``get``, ``commit_block_list``, ...).
    operation_failure_rates: Dict[str, float] = field(default_factory=dict)
    #: Seed for the fault-injection PRNG.
    failure_seed: int = 7
    #: First retry backoff for FE-side storage retries (simulated seconds;
    #: doubles per failed attempt).
    retry_base_backoff_s: float = 0.05
    #: Cap on a single retry backoff (simulated seconds).
    retry_max_backoff_s: float = 5.0
    #: Jitter fraction applied to each backoff (0 = none, 0.5 = ±50%).
    retry_jitter: float = 0.5


@dataclass
class DcpConfig:
    """Cost model and scheduling parameters of the compute platform."""

    #: Simulated seconds of CPU cost to process one million rows in a task.
    seconds_per_million_rows: float = 1.2
    #: Fixed per-task scheduling/startup overhead (simulated seconds).
    task_overhead_s: float = 0.05
    #: Fixed per-source-file read overhead during loads (simulated seconds).
    per_file_overhead_s: float = 0.30
    #: Maximum retries for a failed task before the statement fails.
    max_task_retries: int = 3
    #: Number of nodes in a fixed (non-elastic) topology.
    fixed_nodes: int = 4
    #: Hard cap on elastic topology size (None = unbounded, as in Fabric).
    elastic_max_nodes: int | None = None
    #: Target millions of rows of work per node when sizing elastically.
    rows_per_node_million: float = 2.0
    #: Task slots per compute node.
    slots_per_node: int = 2
    #: Probability that any task attempt fails transiently (fault injection).
    task_failure_rate: float = 0.0
    #: Seed for the task-failure PRNG.
    task_failure_seed: int = 13


@dataclass
class StoConfig:
    """Trigger thresholds for autonomous storage optimizations (Section 5)."""

    #: A data file is "low quality" below this row count (small-file rule).
    min_healthy_rows_per_file: int = 50_000
    #: ... or above this fraction of deleted rows (fragmentation rule).
    max_deleted_fraction: float = 0.20
    #: Compact a table once this fraction of its files is low quality.
    compaction_trigger_fraction: float = 0.10
    #: Checkpoint a table once it accumulates this many new manifests.
    checkpoint_manifest_threshold: int = 10
    #: How often the STO polls its triggers (simulated seconds).
    poll_interval_s: float = 30.0
    #: Retention period for removed files before GC deletes them (seconds).
    retention_period_s: float = 7 * 24 * 3600.0
    #: How often the periodic integrity scrub audits every live blob.
    scrub_interval_s: float = 12 * 3600.0


@dataclass
class TelemetryConfig:
    """End-to-end observability knobs (tracing, metrics, trace capture).

    ``enabled`` turns on the hierarchical span tracer.  ``metrics`` keeps
    the counters/gauges/histograms registry recording even when tracing is
    off (cheap dict increments; the benchmarks read IO/latency totals from
    it).  With both off the telemetry layer degrades to a handful of
    attribute checks per operation — near-zero cost.
    """

    #: Master switch for hierarchical span tracing.
    enabled: bool = False
    #: Keep the metrics registry recording (independent of tracing).
    metrics: bool = True
    #: Hard cap on retained finished spans (overflow counts as dropped).
    max_spans: int = 250_000
    #: Metrics time-series sampling interval in simulated seconds.  0 (the
    #: default) disables the sampler entirely: no ring buffer is allocated
    #: and no clock watcher is armed.
    sample_interval_s: float = 0.0
    #: Evaluate the default watchdog rules over the sampled series
    #: (requires ``sample_interval_s`` > 0).
    watchdog_enabled: bool = False
    #: Enable the query store: fingerprinted per-statement profiles with
    #: per-operator cardinality feedback, surfaced as sys.dm_exec_* views.
    #: Off (the default) means no store is constructed.
    query_store_enabled: bool = False
    #: Sliding window of recent latencies per fingerprint; the regression
    #: detector compares its p95 against the stored baseline.
    query_store_recent_window: int = 16
    #: Executions before a fingerprint's baseline p95 is frozen; no
    #: regression can fire earlier.
    query_store_min_history: int = 8
    #: Enable wait statistics: every blocking point (commit lock, admission
    #: queues, retry backoff, task dispatch, ...) records how long it
    #: stalled the simulated clock, attributed per tenant, workload class
    #: and query fingerprint, surfaced as ``sys.dm_wait_stats`` and
    #: ``sys.dm_exec_query_waits``.  Off (the default) means no collector
    #: is constructed and every instrumented site records into a no-op.
    wait_stats_enabled: bool = False


@dataclass
class ServiceConfig:
    """Multi-tenant gateway knobs (sessions, admission, load shedding).

    The gateway (:mod:`repro.service`) sits in front of the FE: it pools
    per-tenant sessions, rate-limits arrivals with per-tenant token
    buckets, queues admitted requests in bounded per-class priority
    queues (transactional vs analytical, the paper's WP3 separation),
    and sheds excess load with a seeded retry-after hint.
    """

    #: Maximum concurrently open sessions per tenant.
    max_sessions_per_tenant: int = 8
    #: Idle sessions older than this are reaped (simulated seconds).
    session_idle_timeout_s: float = 300.0
    #: Bounded queue capacity per workload class.
    queue_capacity: int = 64
    #: Queued requests older than this are timed out at dispatch.
    queue_deadline_s: float = 30.0
    #: Token-bucket refill rate per tenant (tokens per simulated second).
    tokens_per_s: float = 10.0
    #: Token-bucket burst capacity per tenant.
    token_burst: float = 20.0
    #: Token cost of one transactional request.
    transactional_token_cost: float = 1.0
    #: Token cost of one analytical request (scans are heavier).
    analytical_token_cost: float = 4.0
    #: Weighted round-robin: transactional dispatches per analytical one.
    transactional_share: int = 2
    #: Base retry-after hint returned with shed requests (seconds).
    retry_after_base_s: float = 1.0
    #: Jitter fraction applied to retry-after hints (0 = none, 0.5 = ±50%).
    retry_after_jitter: float = 0.25
    #: Simulated think time the dispatcher spends between dispatches.
    dispatch_interval_s: float = 0.001
    #: Finished request records retained by the gateway ledger.
    finished_history_cap: int = 2048


@dataclass
class OptimizerConfig:
    """Cost-based optimizer knobs (statistics, indexes, join planning).

    With ``enabled`` on but no collected statistics, the optimizer is an
    identity transform: plans keep the binder's join order, so behaviour
    (and every byte of output) is unchanged until someone runs ``ANALYZE``.
    """

    #: Master switch for cost-based plan rewrites (join reordering,
    #: transitive predicate pushdown, index pruning).
    enabled: bool = True
    #: Buckets per equi-depth histogram collected by ANALYZE.
    histogram_buckets: int = 8
    #: A query-store operator misestimate (max(est,actual)/min(est,actual))
    #: at or above this ratio feeds back into the next ANALYZE as a
    #: per-table correction factor.
    misestimate_threshold: float = 2.0
    #: STO auto-analyze: re-collect a table's statistics once this many
    #: rows were ingested since the last ANALYZE.  0 disables the job.
    auto_analyze_rows: int = 0
    #: Allow equality conjuncts to prune data files through secondary
    #: indexes (beyond zone maps).
    index_pruning: bool = True
    #: Feedback correction factors are clamped to [1/cap, cap].
    feedback_factor_cap: float = 1000.0


@dataclass
class TransactionConfig:
    """Transaction-manager behaviour (Section 4)."""

    #: Conflict-detection granularity: "table" (Section 4.1) or "file"
    #: (Section 4.4.1).
    conflict_granularity: str = "table"
    #: Default isolation level: "snapshot", "rcsi" or "serializable".
    isolation: str = "snapshot"
    #: Automatic commit retries for retriable validation failures.
    commit_retries: int = 0
    #: Modeled service time of the commit critical section (simulated
    #: seconds).  The validation phase serializes every commit behind the
    #: commit lock (Section 4.1.2); a non-zero hold keeps the lock "busy"
    #: that long past each release, so concurrent committers queue behind
    #: it and the queueing shows up as ``commit_lock`` waits.  0 (the
    #: default) preserves the idealized instantaneous critical section.
    commit_hold_s: float = 0.0


@dataclass
class PolarisConfig:
    """Top-level configuration bundle for a warehouse instance."""

    storage: StorageConfig = field(default_factory=StorageConfig)
    dcp: DcpConfig = field(default_factory=DcpConfig)
    sto: StoConfig = field(default_factory=StoConfig)
    txn: TransactionConfig = field(default_factory=TransactionConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    #: Target rows per data cell; drives how DML output is split into files.
    rows_per_cell: int = 100_000
    #: Rows per row group inside data files (zone-map granularity).
    row_group_size: int = 65_536
    #: Number of hash distributions (buckets) for cell placement.
    distributions: int = 16
    #: Seed shared by all deterministic generators in the deployment.
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.txn.conflict_granularity not in ("table", "file"):
            raise ValueError(
                f"unknown conflict granularity {self.txn.conflict_granularity!r}"
            )
        if self.txn.isolation not in ("snapshot", "rcsi", "serializable"):
            raise ValueError(f"unknown isolation level {self.txn.isolation!r}")
        if self.distributions <= 0:
            raise ValueError("distributions must be positive")
        if self.rows_per_cell <= 0:
            raise ValueError("rows_per_cell must be positive")
        if self.telemetry.max_spans <= 0:
            raise ValueError("telemetry.max_spans must be positive")
        if self.telemetry.sample_interval_s < 0:
            raise ValueError("telemetry.sample_interval_s must be >= 0")
        if self.telemetry.watchdog_enabled and self.telemetry.sample_interval_s <= 0:
            raise ValueError(
                "telemetry.watchdog_enabled requires sample_interval_s > 0"
            )
        if self.txn.commit_hold_s < 0:
            raise ValueError("txn.commit_hold_s must be >= 0")
        if self.telemetry.query_store_recent_window <= 0:
            raise ValueError("telemetry.query_store_recent_window must be positive")
        if self.telemetry.query_store_min_history < 2:
            raise ValueError("telemetry.query_store_min_history must be >= 2")
        for op, rate in self.storage.operation_failure_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"storage.operation_failure_rates[{op!r}] must be in [0, 1]"
                )
        if self.sto.scrub_interval_s <= 0:
            raise ValueError("sto.scrub_interval_s must be positive")
        if self.storage.retry_base_backoff_s < 0:
            raise ValueError("storage.retry_base_backoff_s must be >= 0")
        if self.storage.retry_jitter < 0 or self.storage.retry_jitter > 1:
            raise ValueError("storage.retry_jitter must be in [0, 1]")
        if self.service.max_sessions_per_tenant <= 0:
            raise ValueError("service.max_sessions_per_tenant must be positive")
        if self.service.queue_capacity <= 0:
            raise ValueError("service.queue_capacity must be positive")
        # Every gateway duration and rate ends up on the tasklet clock: a
        # NaN or an infinity there corrupts the wake order or never wakes.
        for name in (
            "session_idle_timeout_s",
            "queue_deadline_s",
            "tokens_per_s",
            "token_burst",
            "transactional_token_cost",
            "analytical_token_cost",
            "retry_after_base_s",
        ):
            value = getattr(self.service, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"service.{name} must be positive and finite")
        if not (
            math.isfinite(self.service.dispatch_interval_s)
            and self.service.dispatch_interval_s >= 0
        ):
            raise ValueError("service.dispatch_interval_s must be finite and >= 0")
        if self.service.transactional_share < 1:
            raise ValueError("service.transactional_share must be >= 1")
        if not 0.0 <= self.service.retry_after_jitter <= 1.0:
            raise ValueError("service.retry_after_jitter must be in [0, 1]")
        if self.service.finished_history_cap <= 0:
            raise ValueError("service.finished_history_cap must be positive")
        if self.optimizer.histogram_buckets < 1:
            raise ValueError("optimizer.histogram_buckets must be >= 1")
        if self.optimizer.misestimate_threshold < 1.0:
            raise ValueError("optimizer.misestimate_threshold must be >= 1")
        if self.optimizer.auto_analyze_rows < 0:
            raise ValueError("optimizer.auto_analyze_rows must be >= 0")
        if self.optimizer.feedback_factor_cap < 1.0:
            raise ValueError("optimizer.feedback_factor_cap must be >= 1")
