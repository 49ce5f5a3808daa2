"""The query store: fingerprinted per-statement profiles with feedback.

Production warehouses keep a *query store* — per-query-shape execution
history that outlives sessions: SQL Server's ``sys.query_store_*``
catalog, Snowflake's ``QUERY_HISTORY``.  This module reproduces that
substrate for the Polaris reproduction:

* :func:`normalize_sql` strips literals from statement text (numbers and
  strings become ``?``, identifiers lowercase, IN-lists and VALUES row
  groups collapse) so every execution of the same query *shape* maps to
  one stable :func:`fingerprint` — the ``query_hash``.
* :class:`QueryStore` folds every SQL statement executed through
  :class:`repro.sql.runner.SqlSession` into one :class:`QueryProfile`
  per fingerprint: executions, errors, p50/p95/p99 simulated latency,
  rows, bytes read, plan-text hashes, per-operator estimated-vs-actual
  cardinality records (the feedback a cost-based optimizer consumes),
  and per-tenant/workload-class attribution — read from the deployment's
  :class:`~repro.telemetry.scope.RequestScope` — when the statement
  arrived through the gateway.
* A per-fingerprint latency-regression detector increments the
  ``querystore.plan_regressions`` counter the ``plan_latency_regression``
  watchdog rule (:func:`repro.telemetry.timeseries.default_rules`) fires
  on.

Everything runs on the simulated clock and seeded histograms, so two
same-seed runs produce byte-identical ``sys.dm_exec_*`` rows (exported by
:meth:`repro.telemetry.introspection.Introspector.export_jsonl`).
In-flight executions (started, never finished — a simulated crash) are
held apart from the aggregates until :meth:`QueryStore.finish` lands;
:class:`repro.chaos.RecoveryManager` calls :meth:`QueryStore.scavenge` so
a crashed execution is discarded, never double-counted.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.engine.explain import misestimate_ratio
from repro.sql.lexer import Token, tokenize
from repro.storage.metering import IoMeter
from repro.telemetry.metrics import Histogram, MetricsRegistry, percentile
from repro.telemetry.scope import RequestScope

if TYPE_CHECKING:
    from repro.common.clock import SimulatedClock
    from repro.common.events import EventBus

#: Hex digits of SHA-256 kept as a query/plan hash (cross-run stable,
#: unlike Python's ``hash``).
HASH_LENGTH = 16

#: SQL text is truncated to this many chars in span attributes and in
#: ``sys.dm_exec_query_stats.query_text``.
SQL_TEXT_LIMIT = 200

#: A fingerprint regresses when recent p95 >= factor * baseline p95.
REGRESSION_FACTOR = 2.0

#: Sliding window of recent latencies per fingerprint; the regression
#: detector compares its p95 against the stored baseline.
RECENT_WINDOW = 16

#: Executions before a fingerprint's baseline p95 is frozen; no regression
#: can fire earlier.
MIN_HISTORY = 8

#: Single-quoted string literals inside rendered plan text.
_PLAN_STRING_RE = re.compile(r"'[^']*'")

#: Numeric literals inside rendered plan text (not identifier-embedded).
_PLAN_NUMBER_RE = re.compile(r"(?<![\w.'])\d+(?:\.\d+)?(?:e[+-]?\d+)?")


def normalize_sql(text: str, tokens: Optional[List[Token]] = None) -> str:
    """Literal-stripped canonical form of one SQL statement.

    Numbers and strings become ``?``; identifiers are lowercased
    (keywords are already uppercased by the lexer); whitespace and
    comments vanish with tokenization; runs of ``?, ?, ...`` collapse to
    one ``?`` (IN-lists) and repeated ``( ? )`` groups collapse to one
    (multi-row VALUES).  Two statements differing only in literals,
    case, whitespace, or list arity therefore normalize identically.
    ``tokens`` is ``tokenize(text)`` when the caller already lexed it.
    """
    out: List[str] = []
    for token in tokenize(text) if tokens is None else tokens:
        if token.kind == "eof":
            break
        if token.kind in ("number", "string"):
            value = "?"
        elif token.kind == "ident":
            value = token.value.lower()
        else:
            value = token.value
        if value == "?" and out[-2:] == ["?", ","]:
            out.pop()  # "?, ?" -> "?" : drop the comma, skip the repeat
            continue
        out.append(value)
    collapsed: List[str] = []
    i = 0
    while i < len(out):
        if (
            out[i] == ","
            and collapsed[-3:] == ["(", "?", ")"]
            and out[i + 1 : i + 4] == ["(", "?", ")"]
        ):
            i += 4  # "( ? ) , ( ? )" -> "( ? )"
            continue
        collapsed.append(out[i])
        i += 1
    return " ".join(collapsed)


def normalize_and_hash(
    text: str, tokens: Optional[List[Token]] = None
) -> Tuple[str, str]:
    """``(normalized text, query_hash)`` of one statement (``tokens`` as
    in :func:`normalize_sql`)."""
    normalized = normalize_sql(text, tokens)
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
    return normalized, digest[:HASH_LENGTH]


def fingerprint(text: str) -> str:
    """The stable ``query_hash`` of one statement's normalized form."""
    return normalize_and_hash(text)[1]


def plan_fingerprint(plan_text: str) -> str:
    """A literal-stripped hash of rendered plan text.

    Plan text embeds the statement's literals (``filter=(id < 50)``);
    stripping them keeps two literal-variants of one plan shape on the
    same ``plan_hash``, so per-fingerprint plan counts measure genuine
    plan changes.
    """
    normalized = _PLAN_NUMBER_RE.sub("?", _PLAN_STRING_RE.sub("?", plan_text))
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:HASH_LENGTH]


class PendingExecution:
    """One in-flight statement between :meth:`QueryStore.start` and finish.

    Holds everything measured before the statement completes.  A
    simulated crash abandons the pending record mid-flight; recovery
    discards it via :meth:`QueryStore.scavenge`, so nothing it measured
    ever reaches the per-fingerprint aggregates.
    """

    __slots__ = (
        "token",
        "text",
        "statement_kind",
        "query_hash",
        "normalized_text",
        "started_at",
        "bytes_read_before",
        "tenant",
        "workload_class",
        "plan_text",
        "operators",
        "rows",
    )

    def __init__(
        self,
        token: int,
        text: str,
        statement_kind: str,
        query_hash: str,
        normalized_text: str,
        started_at: float,
        bytes_read_before: int,
        tenant: str,
        workload_class: str,
    ) -> None:
        self.token = token
        self.text = text
        self.statement_kind = statement_kind
        self.query_hash = query_hash
        self.normalized_text = normalized_text
        self.started_at = started_at
        self.bytes_read_before = bytes_read_before
        self.tenant = tenant
        self.workload_class = workload_class
        self.plan_text: Optional[str] = None
        self.operators: List[Dict[str, Any]] = []
        #: Rows the statement produced; set by the runner before the
        #: statement scope closes.
        self.rows = 0

    def record_plan(
        self, plan_text: str, operators: List[Dict[str, Any]]
    ) -> None:
        """Attach the compiled plan text and per-operator profile records."""
        self.plan_text = plan_text
        self.operators = operators


class QueryProfile:
    """Aggregated execution history of one query fingerprint."""

    def __init__(
        self,
        query_hash: str,
        statement_kind: str,
        normalized_text: str,
        first_seen: float,
        seed: int,
    ) -> None:
        self.query_hash = query_hash
        self.statement_kind = statement_kind
        self.normalized_text = normalized_text
        self.first_seen = first_seen
        self.last_seen = first_seen
        self.executions = 0
        self.errors = 0
        self.total_rows = 0
        self.total_bytes_read = 0
        #: Seeded reservoir over successful-execution latencies.
        self.latency = Histogram(seed=seed)
        #: Sliding window feeding the regression detector.
        self.recent: Deque[float] = deque(maxlen=RECENT_WINDOW)
        #: Frozen once :data:`MIN_HISTORY` executions accumulate.
        self.baseline_p95_s = 0.0
        self.regressions = 0
        self._in_regression = False
        #: plan_hash -> {"plan_text", "executions", "first_seen", "last_seen"}.
        self.plans: Dict[str, Dict[str, Any]] = {}
        #: operator_id -> cumulative per-operator cardinality feedback.
        self.operators: Dict[int, Dict[str, Any]] = {}
        #: (tenant, workload_class) -> executions attributed.
        self.attribution: Dict[Tuple[str, str], int] = {}

    # -- folding --------------------------------------------------------------

    def fold(
        self, pending: PendingExecution, latency_s: float, rows: int, bytes_read: int
    ) -> bool:
        """Fold one successful execution; returns True on a new regression."""
        self.executions += 1
        self.last_seen = pending.started_at + latency_s
        self.total_rows += rows
        self.total_bytes_read += bytes_read
        self.latency.observe(latency_s)
        self.recent.append(latency_s)
        key = (pending.tenant, pending.workload_class)
        self.attribution[key] = self.attribution.get(key, 0) + 1
        if pending.plan_text is not None:
            self._fold_plan(pending)
        for record in pending.operators:
            self._fold_operator(record)
        return self._check_regression()

    def fold_error(self, pending: PendingExecution, at: float) -> None:
        """Fold one failed execution (no latency/rows pollution)."""
        self.errors += 1
        self.last_seen = at

    def _fold_plan(self, pending: PendingExecution) -> None:
        plan_hash = plan_fingerprint(pending.plan_text or "")
        entry = self.plans.get(plan_hash)
        if entry is None:
            entry = self.plans[plan_hash] = {
                "plan_text": pending.plan_text,
                "executions": 0,
                "first_seen": pending.started_at,
                "last_seen": pending.started_at,
            }
        entry["executions"] += 1
        entry["last_seen"] = self.last_seen

    def _fold_operator(self, record: Dict[str, Any]) -> None:
        op_id = record["operator_id"]
        slot = self.operators.get(op_id)
        if slot is None:
            slot = self.operators[op_id] = {
                "operator": record["operator"],
                "executions": 0,
                "est_rows_total": 0.0,
                "actual_rows_total": 0.0,
                "sim_time_s": 0.0,
                "files": 0,
                "files_pruned": 0,
                "row_groups": 0,
                "row_groups_pruned": 0,
            }
        slot["executions"] += 1
        slot["est_rows_total"] += float(record.get("est_rows", 0))
        slot["actual_rows_total"] += float(record.get("actual_rows", 0))
        slot["sim_time_s"] += float(record.get("sim_time_s") or 0.0)
        for field in ("files", "files_pruned", "row_groups", "row_groups_pruned"):
            slot[field] += int(record.get(field, 0))

    def _check_regression(self) -> bool:
        if self.executions == MIN_HISTORY:
            self.baseline_p95_s = percentile(list(self.recent), 95.0)
            return False
        if self.executions < MIN_HISTORY or self.baseline_p95_s <= 0:
            return False
        recent_p95 = percentile(list(self.recent), 95.0)
        regressed = recent_p95 >= REGRESSION_FACTOR * self.baseline_p95_s
        if regressed and not self._in_regression:
            self._in_regression = True
            self.regressions += 1
            return True
        if not regressed:
            self._in_regression = False
        return False

    # -- reading --------------------------------------------------------------

    def recent_p95_s(self) -> float:
        """p95 over the sliding recent-latency window."""
        return percentile(list(self.recent), 95.0)


class QueryStore:
    """Per-deployment query store over the simulated clock.

    Constructed by :class:`~repro.telemetry.facade.Telemetry` when
    ``telemetry.query_store_enabled`` is on and reachable as
    ``context.telemetry.querystore`` (None when disabled).  ``metrics``,
    ``meter`` and ``scope`` are the deployment's registry, object-store
    meter (per-statement bytes read) and request scope; a store
    constructed standalone gets private ones.
    """

    def __init__(
        self,
        clock: "SimulatedClock",
        metrics: "Optional[MetricsRegistry]" = None,
        meter: "Optional[IoMeter]" = None,
        bus: "Optional[EventBus]" = None,
        seed: int = 0,
        scope: Optional[RequestScope] = None,
    ) -> None:
        self._clock = clock
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._meter = meter if meter is not None else IoMeter()
        self._bus = bus
        self._seed = seed
        self._scope = scope if scope is not None else RequestScope()
        self._profiles: Dict[str, QueryProfile] = {}
        self._inflight: Dict[int, PendingExecution] = {}
        self._next_token = 0

    # -- execution lifecycle --------------------------------------------------

    def start(
        self,
        text: str,
        statement_kind: str,
        fingerprinted: Optional[Tuple[str, str]] = None,
    ) -> PendingExecution:
        """Open one in-flight execution record for a parsed statement.

        ``fingerprinted`` is ``normalize_and_hash(text)`` when the caller
        already has it (a statement is fingerprinted once, by whoever
        enters its scope frame); tenant and workload class come from the
        current frame.
        """
        normalized, query_hash = fingerprinted or normalize_and_hash(text)
        frame = self._scope.current
        self._next_token += 1
        pending = PendingExecution(
            token=self._next_token,
            text=text,
            statement_kind=statement_kind,
            query_hash=query_hash,
            normalized_text=normalized,
            started_at=self._clock.now,
            bytes_read_before=self._meter.bytes_read,
            tenant=frame.tenant,
            workload_class=frame.workload_class,
        )
        self._inflight[pending.token] = pending
        return pending

    def finish(
        self,
        pending: PendingExecution,
        rows: int = 0,
        error: Optional[BaseException] = None,
    ) -> None:
        """Close one in-flight execution and fold it into its profile.

        Never called for a simulated crash — the dead process cannot
        report — so crashed executions stay in-flight until
        :meth:`scavenge` discards them.
        """
        if self._inflight.pop(pending.token, None) is None:
            return  # already scavenged; never double-count
        profile = self._profiles.get(pending.query_hash)
        if profile is None:
            profile = self._profiles[pending.query_hash] = QueryProfile(
                query_hash=pending.query_hash,
                statement_kind=pending.statement_kind,
                normalized_text=pending.normalized_text,
                first_seen=pending.started_at,
                seed=self._seed,
            )
        if error is not None:
            profile.fold_error(pending, self._clock.now)
            return
        latency = self._clock.now - pending.started_at
        bytes_read = self._meter.bytes_read - pending.bytes_read_before
        regressed = profile.fold(pending, latency, rows, bytes_read)
        self._metrics.counter(
            "querystore.recorded", kind=pending.statement_kind
        ).inc()
        if regressed:
            self._on_regression(profile)

    def scavenge(self) -> int:
        """Discard every in-flight execution; returns how many were dropped.

        Called by :class:`repro.chaos.RecoveryManager` after a crash: the
        dead process's statements never finished, so their half-measured
        profiles must not survive into the aggregates.
        """
        discarded = len(self._inflight)
        self._inflight.clear()
        return discarded

    @property
    def inflight_count(self) -> int:
        """How many executions are currently in flight."""
        return len(self._inflight)

    def _on_regression(self, profile: QueryProfile) -> None:
        self._metrics.counter(
            "querystore.plan_regressions", query_hash=profile.query_hash
        ).inc()
        if self._bus is not None:
            self._bus.publish(
                "querystore.regression",
                query_hash=profile.query_hash,
                recent_p95_s=profile.recent_p95_s(),
                baseline_p95_s=profile.baseline_p95_s,
            )

    # -- reading --------------------------------------------------------------

    def profiles(self) -> List[QueryProfile]:
        """Every profile, ordered by query hash."""
        return [self._profiles[h] for h in sorted(self._profiles)]

    def profile(self, query_hash: str) -> Optional[QueryProfile]:
        """One fingerprint's profile, if any execution has been recorded."""
        return self._profiles.get(query_hash)

    def query_stats_rows(self) -> List[Dict[str, Any]]:
        """``sys.dm_exec_query_stats`` rows, one per fingerprint."""
        rows = []
        for profile in self.profiles():
            summary = profile.latency.summary()
            tenants = sorted({t for t, _ in profile.attribution if t})
            classes = sorted({w for _, w in profile.attribution if w})
            rows.append(
                {
                    "query_hash": profile.query_hash,
                    "statement_kind": profile.statement_kind,
                    "query_text": profile.normalized_text[:SQL_TEXT_LIMIT],
                    "executions": profile.executions,
                    "errors": profile.errors,
                    "total_rows": profile.total_rows,
                    "total_bytes_read": profile.total_bytes_read,
                    "total_sim_s": summary["sum"],
                    "mean_sim_s": summary["mean"],
                    "p50_s": summary["p50"],
                    "p95_s": summary["p95"],
                    "p99_s": summary["p99"],
                    "recent_p95_s": profile.recent_p95_s(),
                    "baseline_p95_s": profile.baseline_p95_s,
                    "regressions": profile.regressions,
                    "plan_count": len(profile.plans),
                    "tenants": ",".join(tenants),
                    "workload_classes": ",".join(classes),
                    "first_seen": profile.first_seen,
                    "last_seen": profile.last_seen,
                }
            )
        return rows

    def query_plans_rows(self) -> List[Dict[str, Any]]:
        """``sys.dm_exec_query_plans`` rows, one per (fingerprint, plan)."""
        rows = []
        for profile in self.profiles():
            for plan_hash, entry in sorted(profile.plans.items()):
                rows.append(
                    {
                        "query_hash": profile.query_hash,
                        "plan_hash": plan_hash,
                        "executions": entry["executions"],
                        "first_seen": entry["first_seen"],
                        "last_seen": entry["last_seen"],
                        "plan_text": entry["plan_text"],
                    }
                )
        return rows

    def operator_stats_rows(self) -> List[Dict[str, Any]]:
        """``sys.dm_exec_operator_stats`` rows: cardinality feedback.

        ``est_rows``/``actual_rows`` are per-execution means;
        ``misestimate`` is the symmetric ratio between them — the record
        a cost-based optimizer consumes to correct its estimates.
        """
        rows = []
        for profile in self.profiles():
            for op_id, slot in sorted(profile.operators.items()):
                executions = max(slot["executions"], 1)
                est_mean = slot["est_rows_total"] / executions
                actual_mean = slot["actual_rows_total"] / executions
                rows.append(
                    {
                        "query_hash": profile.query_hash,
                        "operator_id": op_id,
                        "operator": slot["operator"],
                        "executions": slot["executions"],
                        "est_rows": est_mean,
                        "actual_rows": actual_mean,
                        "misestimate": misestimate_ratio(est_mean, actual_mean),
                        "sim_time_s": slot["sim_time_s"],
                        "files": slot["files"],
                        "files_pruned": slot["files_pruned"],
                        "row_groups": slot["row_groups"],
                        "row_groups_pruned": slot["row_groups_pruned"],
                    }
                )
        return rows
