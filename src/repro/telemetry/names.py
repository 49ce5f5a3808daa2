"""The canonical telemetry-name registry.

Metric and span names are part of the public observability surface: the
``sys.dm_metrics`` view, dashboards and the benchmark harness address
instruments by name, so a typo at a call site silently forks a series.
Every name is therefore declared here once, with its meaning.
:class:`~repro.telemetry.metrics.MetricsRegistry` rejects a metric name
missing from :data:`METRIC_NAMES` (or not dotted lowercase) when it
creates the instrument, as ``WaitStats`` rejects an unregistered wait
kind; the ``metric-naming`` lint rule (:mod:`repro.analysis.rules`)
statically verifies that each span call site uses a string literal
registered in :data:`SPAN_NAMES` or a registered prefix — the same
discipline :data:`repro.chaos.crashpoints.CRASHPOINTS` enforces for
crash sites.

Names are ``segment(.segment)*`` where each segment is a lowercase
identifier; a single segment (``txn``) is the degenerate dotted form.
Dynamic suffixes (per-statement-kind spans such as ``sql.select``) are
covered by a registered prefix in :data:`SPAN_PREFIXES`.
"""

from __future__ import annotations

import re
from typing import Dict

#: ``segment(.segment)*`` — lowercase identifiers joined by dots.
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


def is_well_formed(name: str) -> bool:
    """Whether ``name`` is a dotted lowercase telemetry name."""
    return NAME_RE.match(name) is not None


#: Every metric instrument name in the source tree, with its meaning.
METRIC_NAMES: Dict[str, str] = {
    "bus.events": "EventBus publishes, labeled by topic.",
    "chaos.crashes": "SimulatedCrash injections, labeled by site.",
    "dcp.dag_makespan_s": "Simulated makespan of one executed task DAG.",
    "dcp.dags": "Task DAGs executed by the scheduler.",
    "dcp.task_duration_s": "Simulated task runtimes, labeled by pool.",
    "dcp.task_failures": "Transient task-attempt failures.",
    "dcp.task_retries": "Task attempts beyond the first.",
    "dcp.tasks": "Tasks executed, labeled by pool.",
    "optimizer.analyze.runs": (
        "ANALYZE executions, labeled by source (analyze vs auto)."
    ),
    "optimizer.analyze.rows_scanned": "Rows scanned by ANALYZE statements.",
    "optimizer.index.builds": "Secondary-index builds (and rebuilds).",
    "optimizer.index.entries": "Distinct (key, file) entries written to indexes.",
    "optimizer.index.files_pruned": (
        "Data files skipped because an index proved they cannot match."
    ),
    "optimizer.index.lookups": "Equality probes answered by an index.",
    "optimizer.plan.reorders": "Plans whose join order the optimizer changed.",
    "optimizer.plan.rewrites": "Plans changed by the cost-based rewrite pass.",
    "optimizer.plan.transitive_conjuncts": (
        "Scan predicates added by transitive equality propagation."
    ),
    "pagefile.chunk_cache.evictions": (
        "Chunks and parsed footers evicted from the chunk cache (LRU, byte budget)."
    ),
    "pagefile.chunk_cache.hits": (
        "Chunks and footers served from the chunk cache "
        "(zlib.decompress or the footer parse skipped)."
    ),
    "pagefile.chunk_cache.misses": (
        "Chunks inflated and footers parsed on a chunk-cache miss."
    ),
    "pagefile.chunk_cache.resident_bytes": (
        "Gauge: entry sizes plus per-entry overhead the chunk cache holds."
    ),
    "querystore.recorded": (
        "Statement executions folded into the query store, by kind."
    ),
    "recovery.in_doubt_aborted": "In-doubt transactions aborted by recovery.",
    "recovery.in_doubt_committed": (
        "In-doubt transactions resolved committed by recovery."
    ),
    "recovery.publishes_completed": "Missed Delta publishes completed.",
    "recovery.runs": "Recovery passes executed.",
    "recovery.scavenged": (
        "In-flight process-state records discarded on restart, labeled by "
        "recovery participant."
    ),
    "recovery.staged_blocks_discarded": "Staged blocks scavenged on restart.",
    "service.admitted": "Requests admitted into a class queue.",
    "service.completions": "Requests completed, labeled by workload class.",
    "service.failures": "Requests failed in execution, labeled by error.",
    "service.queue_depth": "Gauge: requests queued across both classes.",
    "service.queue_wait_s": "Queue wait of dispatched requests, by class.",
    "service.request_latency_s": (
        "Submit-to-completion latency of completed requests, by class."
    ),
    "service.requests": "Requests submitted, by tenant and workload class.",
    "service.retry_after_s": "Retry-after hints handed to shed requests.",
    "service.sessions_open": "Gauge: pooled FE sessions currently open.",
    "service.sessions_reaped": "Idle sessions closed by the reaper.",
    "service.shed": "Requests refused by admission, labeled by reason.",
    "service.timeouts": "Requests expired past their queue deadline.",
    "sql.plan_cache.hits": (
        "SELECTs that reused a cached bound plan (parse, schema read and "
        "bind skipped)."
    ),
    "sql.plan_cache.misses": "SELECTs compiled from their text.",
    "sto.checkpoints": "Checkpoints taken.",
    "sto.compactions": "Compaction runs, labeled by outcome.",
    "sto.files_rewritten": "Data files rewritten by compactions.",
    "sto.gc_files_deleted": "Files deleted by garbage collection.",
    "sto.gc_runs": "Garbage-collection runs.",
    "sto.manifests_collapsed": "Manifests absorbed into checkpoints.",
    "sto.publishes": "Manifest publishes to open formats.",
    "sto.unhealthy_tables": (
        "Gauge: tables currently below the storage-health thresholds."
    ),
    "storage.faults_injected": "Injected transient faults, labeled by op.",
    "storage.integrity_blobs_verified": "Blobs audited by scrub passes.",
    "storage.integrity_corruptions_injected": (
        "Injected corruption faults, labeled by kind and op."
    ),
    "storage.integrity_errors": "Checksum mismatches caught on read.",
    "storage.integrity_quarantined": "Corrupt blobs moved to quarantine.",
    "storage.integrity_repaired": (
        "Quarantined blobs re-materialized from redundant metadata."
    ),
    "storage.integrity_unrepairable": (
        "Corrupt blobs with no redundant source to repair from."
    ),
    "storage.request_latency_s": "Per-request simulated latency, by op.",
    "storage.retry_attempts": "Failed attempts inside with_retries.",
    "storage.retry_backoff_s": "Simulated backoff charged between retries.",
    "storage.retry_outcomes": "Retried operations, by label and outcome.",
    "storage.sim_latency_s": "Simulated latency charged, by op and mode.",
    "txn.commit_failures": "Failed commit attempts, labeled by error type.",
    "txn.commits": "Successful transaction commits.",
    "txn.rollbacks": "Explicit transaction rollbacks.",
}

#: Every literal span / span-event name used outside dynamic prefixes.
SPAN_NAMES: Dict[str, str] = {
    "chaos.crash": "Span event marking an injected crash, with its site.",
    "dcp.dag": "One scheduled task DAG, start to makespan.",
    "recovery.run": "One full restart-recovery pass.",
    "retry": "Span event: one failed attempt inside with_retries.",
    "retry.exhausted": "Span event: a retried operation ran out of attempts.",
    "service.request": "One gateway request, dispatch to completion.",
    "sto.analyze": "One auto-ANALYZE statistics-collection job.",
    "sto.checkpoint": "One checkpoint job.",
    "sto.compaction": "One compaction job.",
    "sto.index_refresh": "One secondary-index maintenance job.",
    "sto.gc": "One garbage-collection job.",
    "sto.publish": "One open-format publish of a committed manifest.",
    "sto.scrub": "One integrity-scrub job over every live table.",
    "sto.scrub.finding": "Span event: one corrupt blob found by the scrubber.",
    "sto.trigger.analyze": "Span event: auto-ANALYZE trigger fired.",
    "sto.trigger.checkpoint": "Span event: checkpoint trigger fired.",
    "sto.trigger.compaction": "Span event: compaction trigger fired.",
    "storage.corruption": "Span event: an injected corruption fault.",
    "storage.fault": "Span event: an injected transient storage fault.",
    "storage.integrity_violation": (
        "Span event: a checksum mismatch caught on a verified read."
    ),
    "txn": "One user transaction, begin to finish.",
    "txn.commit": "The validation phase of one commit.",
}

#: Registered literal prefixes for spans whose suffix is dynamic.
SPAN_PREFIXES: Dict[str, str] = {
    "event:": "Bus events mirrored into the active span, by topic.",
    "sql.": "One span per SQL statement, suffixed by statement kind.",
    "stmt.": "One span per session statement, suffixed by statement name.",
    "store.": "One span per object-store request, suffixed by operation.",
}

#: Every wait-event kind, with its meaning.  ``WaitStats`` rejects any
#: other kind at runtime, and tier-1 tests drive each ``record_wait`` /
#: ``waiting`` call site with wait stats on, because the
#: ``sys.dm_wait_stats`` and ``sys.dm_exec_query_waits`` rows address
#: waits by kind.
WAIT_NAMES: Dict[str, str] = {
    "admission_queue": (
        "Submit-to-dispatch time a request spent in its gateway class "
        "queue before execution started."
    ),
    "commit_lock": (
        "Time a committer queued behind the sqldb commit lock (the "
        "serialized validation phase of Section 4.1.2)."
    ),
    "dcp_dispatch": (
        "Time a ready DCP task waited for a free node slot before its "
        "attempt could start."
    ),
    "queue_deadline": (
        "Full queue wait of a request that expired past its deadline at "
        "dispatch; the wait bought nothing."
    ),
    "session_pool": (
        "Session-pool acquisition failures at dispatch (count-only: "
        "acquisition never blocks, it fails fast on quota)."
    ),
    "sto_schedule": (
        "Lag between a compaction trigger's due time and the tick that "
        "actually ran it."
    ),
    "storage_retry": (
        "Retry backoff charged to the simulated clock between failed "
        "object-store attempts."
    ),
    "throttle": (
        "Retry-after hint handed to a request shed by admission control "
        "(the stall a well-behaved client honors before retrying)."
    ),
}
