"""Deterministic chaos harness: crash-sweep and longevity workloads.

The sweep (:func:`run_crash_sweep`) enumerates every registered
crashpoint and, for each one, runs a fixed multi-table workload against a
fresh deployment with that single site armed.  The workload dies there
(:class:`~repro.common.errors.SimulatedCrash`), a
:class:`~repro.chaos.recovery.RecoveryManager` models the restart, and a
battery of invariants is asserted over the recovered state:

* **No committed transaction is lost** — every ``Manifests`` row's blob
  exists, and every table's latest snapshot reconstructs with all of its
  data and deletion-vector files present (no torn snapshot).
* **Atomicity window** — each table's live row count equals either the
  count acknowledged before the crashed step or that count plus the
  step's declared delta, never anything in between.
* **The warehouse still works** — a post-recovery probe transaction
  commits and is visible with exactly its own rows.
* **GC is crash-safe** — a garbage-collection pass after recovery never
  deletes a file the recovered catalog still references, and a second
  pass finds zero orphans and retains nothing as "recent".
* **Snapshot isolation holds** — the full bus history (workload, crash,
  recovery, probe) passes the :mod:`repro.analysis.si` sanitizer.
* **Every crash raised reaches the harness** — the sites the controller
  fired (``ChaosController.crashes``) equal the crashes the harness's
  ``except SimulatedCrash`` caught.  A handler on the way that swallows
  one turns a dead process into a call that returned, and the run
  reports "crash raised at X but swallowed before it reached the
  harness".

Besides one run per site, :data:`STEP_RUNS` crashes sites inside named
steps: the STO jobs a user statement runs inline (the commit-triggered
checkpoint, the compaction a scan's statistics trigger, ``tick()``) and
the catalog commits of the checkpointer and the garbage collector.

Everything is seeded: the same seed yields byte-identical sweep
summaries, which is what makes a crash reproducible from its CLI line.

The longevity run (:func:`run_longevity`) is the complementary soak: no
crashes, but a nonzero transient-fault rate on every storage operation,
driving the retry/backoff machinery for a seeded random mix of
statements and STO jobs, with the same integrity battery at the end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.si import HistoryRecorder, check_history, format_violations
from repro.chaos.crashpoints import CRASHPOINTS, ChaosController
from repro.chaos.recovery import RecoveryManager, RecoveryReport
from repro.common.config import PolarisConfig
from repro.common.errors import (
    PolarisError,
    SimulatedCrash,
    TaskFailedError,
    TransientStorageError,
)
from repro.engine.expressions import BinOp, Col, Lit, and_
from repro.lst.checkpoint import Checkpoint
from repro.pagefile.schema import Schema
from repro.sqldb import system_tables as catalog
from repro.warehouse.warehouse import Warehouse

#: Schema shared by every workload table.
WORKLOAD_SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))

#: The recovery re-entrancy sites: they only fire *inside* a
#: :class:`RecoveryManager` pass, so the default sweep never arms them.
#: ``double_crash`` mode crashes recovery itself at each of them instead.
RECOVERY_SITES: Tuple[str, ...] = tuple(
    sorted(site for site in CRASHPOINTS if site.startswith("recovery."))
)

#: Sites the default sweep enumerates (everything the workload reaches).
WORKLOAD_SITES: Tuple[str, ...] = tuple(
    sorted(site for site in CRASHPOINTS if not site.startswith("recovery."))
)

#: Which occurrence of each site the sweep crashes at.  Commit-path sites
#: fire on every transaction, so crashing at the fifth hit lands the
#: crash inside the workload's multi-statement transaction (two tables in
#: flight) instead of the first trivial DDL commit.  Sites absent here
#: crash at their first hit.
SWEEP_HIT_PLAN: Dict[str, int] = {
    "fe.commit.before_validation": 5,
    "fe.commit.after_writesets": 5,
    "fe.commit.after_sqldb_commit": 5,
    "sqldb.commit.after_validate": 5,
    "sqldb.commit.after_install": 5,
    # Gateway sites: crash with other requests already admitted so the
    # scavenge has real mid-queue state to reconcile, and (for the
    # dispatch sites) with completed requests already in the ledger.
    "service.admit.after_enqueue": 4,
    "service.dispatch.before_execute": 3,
    "service.dispatch.after_execute": 2,
}

#: Runs that crash a site inside one named workload step, beyond the one
#: run per site: (site, step).  The site is armed as the step starts and
#: fires at its first hit there.  The ``*_on_*`` steps run the STO inline
#: from a user statement; the catalog commit of ``checkpoint_orders`` and
#: ``age_and_gc`` is the checkpointer's and the garbage collector's own.
STEP_RUNS: Tuple[Tuple[str, str], ...] = (
    ("sqldb.commit.after_validate", "age_and_gc"),
    ("sqldb.commit.after_validate", "checkpoint_orders"),
    ("sto.checkpoint.after_blob_put", "checkpoint_on_commit"),
    ("sto.checkpoint.before_blob_put", "checkpoint_on_commit"),
    ("sto.compaction.after_commit", "compact_on_scan"),
    ("sto.compaction.before_commit", "compact_on_scan"),
    ("sto.compaction.before_commit", "compact_on_tick"),
)


def chaos_config(seed: int = 0) -> PolarisConfig:
    """Deployment configuration scaled so every crashpoint is reachable.

    Small cells make every insert produce unhealthy (compactable) files;
    a high checkpoint threshold keeps checkpoints an explicit workload
    step; a short retention period lets the workload age files past it.
    Query store and wait stats are on (neither advances the clock) so
    recovery's participant loop always has collectors to scavenge.
    """
    config = PolarisConfig()
    config.seed = seed
    config.distributions = 4
    config.rows_per_cell = 500
    config.sto.min_healthy_rows_per_file = 200
    config.sto.max_deleted_fraction = 0.25
    config.sto.checkpoint_manifest_threshold = 999
    config.sto.retention_period_s = 3600.0
    config.dcp.fixed_nodes = 2
    config.telemetry.query_store_enabled = True
    config.telemetry.wait_stats_enabled = True
    return config


def _batch(start: int, count: int) -> Dict[str, np.ndarray]:
    """A deterministic batch of ``count`` rows with ids from ``start``."""
    ids = np.arange(start, start + count, dtype=np.int64)
    return {"id": ids, "v": (ids % 7).astype(np.float64)}


class ChaosWorkload:
    """The fixed multi-table workload the sweep crashes and recovers.

    Tracks, per table, the row count *acknowledged* (steps that returned)
    and the *pending* delta of the step currently executing, so the
    post-crash oracle knows the only two legal counts for each table.
    """

    def __init__(self, seed: int = 0) -> None:
        self.config = chaos_config(seed)
        self.warehouse = Warehouse(config=self.config, auto_optimize=False)
        self.warehouse.sto.auto_publish = True
        self.session = self.warehouse.session()
        self.recorder = HistoryRecorder().attach(self.warehouse.context.bus)
        self.acknowledged: Dict[str, int] = {}
        self.pending: Dict[str, int] = {}
        self.table_ids: Dict[str, int] = {}
        #: Sites of the crashes :meth:`run_until_crash` caught, in order.
        self.crashes_caught: List[str] = []

    # -- steps ------------------------------------------------------------

    def _create_tables(self) -> None:
        """Step: CREATE TABLE orders, events."""
        for name in ("orders", "events"):
            self.table_ids[name] = self.session.create_table(
                name, WORKLOAD_SCHEMA, distribution_column="id"
            )

    def _load_orders(self) -> None:
        """Step: insert 400 rows into orders."""
        self.session.insert("orders", _batch(0, 400))

    def _load_events(self) -> None:
        """Step: insert 200 rows into events."""
        self.session.insert("events", _batch(0, 200))

    def _multi_statement_txn(self) -> None:
        """Step: one explicit transaction touching both tables.

        The second DELETE reaches the files the first gave a DV, so it
        replaces a DV this transaction wrote: that statement rewrites the
        manifest, and every other one appends its blocks.
        """
        self.session.begin()
        self.session.insert("orders", _batch(1000, 100))
        for start in (1000, 1010):
            self.session.delete(
                "orders",
                and_(
                    BinOp(">=", Col("id"), Lit(start)),
                    BinOp("<", Col("id"), Lit(start + 10)),
                ),
            )
        self.session.update(
            "events",
            BinOp("<", Col("id"), Lit(50)),
            {"v": BinOp("+", Col("v"), Lit(1.0))},
        )
        self.session.commit()

    def _update_orders(self) -> None:
        """Step: update a slice of orders (deletion vectors, no count change)."""
        self.session.update(
            "orders",
            BinOp("<", Col("id"), Lit(100)),
            {"v": BinOp("*", Col("v"), Lit(2.0))},
        )

    def _delete_orders(self) -> None:
        """Step: delete the 40 rows with 360 <= id < 400."""
        self.session.delete(
            "orders",
            and_(
                BinOp(">=", Col("id"), Lit(360)),
                BinOp("<", Col("id"), Lit(400)),
            ),
        )

    def _analyze_orders(self) -> None:
        """Step: ANALYZE orders (persists a versioned stats row)."""
        self.session.analyze_table("orders")

    def _index_orders(self) -> None:
        """Step: CREATE INDEX on orders.id (blob put, then catalog row)."""
        self.session.create_index("orders", "idx_orders_id", "id")

    def _compact_orders(self) -> None:
        """Step: compact orders (every file is below the health floor)."""
        self.warehouse.sto.run_compaction(self.table_ids["orders"])

    def _checkpoint_orders(self) -> None:
        """Step: checkpoint orders explicitly."""
        self.warehouse.sto.run_checkpoint(self.table_ids["orders"])

    def _age_and_gc(self) -> None:
        """Step: age everything past retention, then garbage-collect."""
        retention = self.config.sto.retention_period_s
        self.warehouse.context.clock.advance(retention + 60.0)
        self.warehouse.sto.run_gc()

    def _final_insert(self) -> None:
        """Step: one more insert after the STO cycle."""
        self.session.insert("orders", _batch(2000, 50))

    def _checkpoint_on_commit(self) -> None:
        """Step: the STO runs from here on; an update of events commits,
        and its commit event checkpoints events inside the statement."""
        self.warehouse.sto.enabled = True
        self.config.sto.checkpoint_manifest_threshold = 1
        self.session.update(
            "events",
            BinOp(">=", Col("id"), Lit(150)),
            {"v": BinOp("+", Col("v"), Lit(1.0))},
        )

    def _scan_orders_after_poll(self) -> None:
        """A scan of orders (its statistics schedule a compaction of the
        undersized files), then the clock past the compaction's due time."""
        self.session.sql("SELECT id FROM orders")
        self.warehouse.context.clock.advance(self.config.sto.poll_interval_s)

    def _compact_on_scan(self) -> None:
        """Step: the second of two scans drains the compaction the first
        one scheduled, inside the statement."""
        self._scan_orders_after_poll()
        self.session.sql("SELECT id FROM orders")

    def _compact_on_tick(self) -> None:
        """Step: an update leaves orders undersized files again, a scan
        schedules their compaction, and ``tick()`` runs it."""
        self._update_orders()
        self._scan_orders_after_poll()
        self.warehouse.sto.tick()

    def steps(self) -> List[Tuple[str, Callable[[], None], Dict[str, int]]]:
        """The ordered step list: (name, thunk, declared row-count delta)."""
        return [
            ("create_tables", self._create_tables, {}),
            ("load_orders", self._load_orders, {"orders": 400}),
            ("load_events", self._load_events, {"events": 200}),
            ("multi_statement_txn", self._multi_statement_txn, {"orders": 80}),
            ("update_orders", self._update_orders, {}),
            ("delete_orders", self._delete_orders, {"orders": -40}),
            ("analyze_orders", self._analyze_orders, {}),
            ("index_orders", self._index_orders, {}),
            ("compact_orders", self._compact_orders, {}),
            ("checkpoint_orders", self._checkpoint_orders, {}),
            ("age_and_gc", self._age_and_gc, {}),
            ("final_insert", self._final_insert, {"orders": 50}),
            ("checkpoint_on_commit", self._checkpoint_on_commit, {}),
            ("compact_on_scan", self._compact_on_scan, {}),
            ("compact_on_tick", self._compact_on_tick, {}),
        ]

    def run_until_crash(
        self, before_step: Optional[Callable[[str], None]] = None
    ) -> Optional[str]:
        """Run the steps in order; returns the step a crash fired in.

        Returns None when every step completed without a simulated crash.
        The harness (not product code) catches :class:`SimulatedCrash`:
        it plays the role of the supervisor observing the process die,
        and records the site in :attr:`crashes_caught`.  ``before_step``
        is called with each step's name before the step runs.
        """
        for name, thunk, delta in self.steps():
            if before_step is not None:
                before_step(name)
            self.pending = dict(delta)
            try:
                thunk()
            except SimulatedCrash as crash:
                self.crashes_caught.append(crash.site)
                return name
            for table, change in self.pending.items():
                self.acknowledged[table] = (
                    self.acknowledged.get(table, 0) + change
                )
            self.pending = {}
        return None

    def allowed_counts(self, table: str) -> Set[int]:
        """The legal post-recovery live row counts for one table."""
        base = self.acknowledged.get(table, 0)
        return {base, base + self.pending.get(table, 0)}


# -- invariant checks ------------------------------------------------------


def _catalog_tables(context) -> Dict[str, int]:
    """Map of table name -> table id from the recovered catalog."""
    txn = context.sqldb.begin()
    try:
        return {
            row["name"]: row["table_id"] for row in catalog.list_tables(txn)
        }
    finally:
        txn.abort()


def _observed_counts(context) -> Tuple[Dict[str, int], List[str]]:
    """Reconstruct every table's latest snapshot; returns (counts, problems).

    A manifest row whose blob is gone, a snapshot that fails to decode,
    or a referenced data/DV file missing from the store are all reported
    as problems — they are exactly "lost commit" and "torn snapshot".
    """
    problems: List[str] = []
    counts: Dict[str, int] = {}
    store = context.store
    table_ids = _catalog_tables(context)
    txn = context.sqldb.begin()
    try:
        manifest_rows = {
            name: catalog.manifests_for_table(txn, table_id)
            for name, table_id in table_ids.items()
        }
    finally:
        txn.abort()
    for name, rows in manifest_rows.items():
        for row in rows:
            if not store.exists(row["manifest_path"]):
                problems.append(
                    f"lost commit: {name} manifest {row['manifest_path']} "
                    "is missing from the store"
                )
        if not rows:
            counts[name] = 0
            continue
        last_seq = rows[-1]["sequence_id"]
        try:
            snapshot = context.cache.get(table_ids[name], last_seq)
        except PolarisError as exc:
            problems.append(
                f"torn snapshot: {name}@{last_seq} failed to reconstruct: {exc}"
            )
            continue
        for info in snapshot.files.values():
            if not store.exists(info.path):
                problems.append(
                    f"torn snapshot: {name}@{last_seq} references missing "
                    f"data file {info.path}"
                )
        for info in snapshot.dvs.values():
            if not store.exists(info.path):
                problems.append(
                    f"torn snapshot: {name}@{last_seq} references missing "
                    f"DV file {info.path}"
                )
        counts[name] = snapshot.live_rows
    return counts, problems


def _referenced_paths(context) -> Set[str]:
    """Every internal path the catalog currently makes reachable."""
    referenced: Set[str] = set()
    txn = context.sqldb.begin()
    try:
        for name, table_id in _catalog_tables(context).items():
            rows = catalog.manifests_for_table(txn, table_id)
            for row in rows:
                referenced.add(row["manifest_path"])
            for ckpt in catalog.checkpoints_for_table(txn, table_id):
                referenced.add(ckpt["path"])
            for index_row in catalog.indexes_for_table(txn, table_id):
                referenced.add(index_row["path"])
            if rows:
                snapshot = context.cache.get(table_id, rows[-1]["sequence_id"])
                referenced.update(i.path for i in snapshot.files.values())
                referenced.update(i.path for i in snapshot.dvs.values())
    finally:
        txn.abort()
    return referenced


def _check_gc_safety(warehouse: Warehouse) -> List[str]:
    """Run GC twice post-recovery; verify safety and orphan convergence.

    Protected files are the latest snapshots' data and DV files — GC may
    legitimately truncate (and then delete) aged manifest and checkpoint
    blobs in the same pass, but a live snapshot's payload is never
    deletable.  After each pass, everything the (possibly shrunken)
    catalog still references must exist.
    """
    problems: List[str] = []
    context = warehouse.context
    protected: Set[str] = set()
    txn = context.sqldb.begin()
    try:
        for __, table_id in sorted(_catalog_tables(context).items()):
            last = catalog.latest_manifest(txn, table_id)
            if last is not None:
                snapshot = context.cache.get(table_id, last["sequence_id"])
                protected.update(i.path for i in snapshot.files.values())
                protected.update(i.path for i in snapshot.dvs.values())
    finally:
        txn.abort()
    first = warehouse.sto.run_gc()
    deleted = set(first.deleted_expired) | set(first.deleted_orphans)
    for path in sorted(deleted & protected):
        problems.append(f"gc deleted a live snapshot file: {path}")
    # Truncation may have shrunk the catalog; everything it still
    # references must have survived the pass.
    for path in sorted(_referenced_paths(context)):
        if not context.store.exists(path):
            problems.append(f"gc left a dangling reference: {path}")
    second = warehouse.sto.run_gc()
    if second.deleted_orphans:
        problems.append(
            "orphans did not converge to zero: second GC pass deleted "
            f"{sorted(second.deleted_orphans)}"
        )
    if second.retained_recent:
        problems.append(
            "second GC pass still retains 'recent' files with no active "
            f"transactions: {sorted(second.retained_recent)}"
        )
    return problems


def _check_tombstones_bounded(context, table_id: int) -> List[str]:
    """Neither the newest snapshot nor the newest checkpoint of a table may
    hold a tombstone past retention as of the last commit it reflects.

    For the checkpoint that commit is its manifest's while the catalog
    still has it; once truncated, the checkpoint's newest removal stands
    in (an earlier instant, so the check only gets weaker).
    """
    txn = context.sqldb.begin()
    try:
        last = catalog.latest_manifest(txn, table_id)
        newest = catalog.latest_checkpoint(
            txn, table_id, context.sqldb.last_commit_seq
        )
        covered = newest and txn.get(
            catalog.MANIFESTS, (table_id, newest["sequence_id"])
        )
    finally:
        txn.abort()
    held = []
    if last is not None:
        snapshot = context.cache.get(table_id, last["sequence_id"])
        held.append(("snapshot", snapshot, last["committed_at"]))
    if newest is not None:
        blob = context.store.get(newest["path"])
        snapshot = Checkpoint.from_bytes(blob.data, newest["path"]).snapshot
        as_of = (
            covered["committed_at"]
            if covered
            else max((t.removed_at for t in snapshot.tombstones), default=0.0)
        )
        held.append(("checkpoint", snapshot, as_of))
    retention = context.config.sto.retention_period_s
    problems = []
    for what, snapshot, as_of in held:
        expired = sum(
            1 for t in snapshot.tombstones if t.removed_at + retention <= as_of
        )
        if expired:
            problems.append(
                f"unbounded history: {expired} of the newest {what}'s "
                f"{len(snapshot.tombstones)} tombstones (table {table_id} @ "
                f"{snapshot.sequence_id}) are past retention"
            )
    return problems


def _check_si(recorder: HistoryRecorder) -> List[str]:
    """Run the snapshot-isolation sanitizer over the recorded history."""
    violations = check_history(recorder.history())
    if not violations:
        return []
    return ["si violation: " + line for line in format_violations(violations).splitlines()]


def _swallowed(controller: ChaosController, caught: Sequence[str]) -> List[str]:
    """The crashes ``controller`` raised that never reached the harness.

    ``caught`` lists the sites of the crashes the harness's own ``except
    SimulatedCrash`` saw.  A crash missing there was swallowed by a
    handler on the way, which turned "the process died" into "the call
    returned": the dead process's in-flight state was never left to
    recovery.
    """
    missing = Counter(controller.crashes) - Counter(caught)
    return [
        f"crash raised at {site} but swallowed before it reached the harness"
        for site in sorted(missing.elements())
    ]


def _recover_with_crashes(
    context, sto, seed: int
) -> Tuple[RecoveryReport, List[str]]:
    """Crash recovery itself at every ``recovery.*`` site, then finish.

    The double-crash scenario: the process died mid-protocol, the restart
    began repairing, and then *that* process died too — at every possible
    step boundary in turn.  A site is crashed at its first hit, then its
    second, ... until a pass gets through it (the participant site is hit
    once per registered participant, so every gap between two scavenges
    is a crash instant).  Each partial pass is abandoned where its armed
    site fires; the next pass must be able to re-enter over whatever the
    previous one left behind (every recovery step is idempotent).  The
    final pass runs with nothing armed and its report is returned.

    Returns ``(final_report, problems)`` where ``problems`` names any
    recovery site that failed to fire (recovery no longer reaches it) or
    whose crash recovery swallowed.
    """
    problems: List[str] = []
    manager = RecoveryManager(context, sto=sto, strict=False)
    for site in RECOVERY_SITES:
        crashes = 0
        while True:
            controller = ChaosController(
                seed=seed, telemetry=context.telemetry
            ).arm(site, hits=crashes + 1)
            caught: List[str] = []
            with controller:
                try:
                    manager.recover()
                except SimulatedCrash as crash:
                    caught.append(crash.site)
            problems.extend(_swallowed(controller, caught))
            if not controller.crashes:
                break
            crashes += 1
        if not crashes:
            problems.append(
                f"{site}: armed but never fired — recovery no longer "
                "reaches this site"
            )
    return manager.recover(), problems


# -- sweep -----------------------------------------------------------------


@dataclass
class SiteResult:
    """Outcome of crashing at one site and recovering."""

    site: str
    crashed_at_step: str
    recovery: Optional[RecoveryReport]
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: The step the site was armed in ("" = from the start, per
    #: :data:`SWEEP_HIT_PLAN`).
    step: str = ""

    @property
    def ok(self) -> bool:
        """Whether every invariant held for this site."""
        return not self.problems

    @property
    def label(self) -> str:
        """The site, and the step it was armed in if any."""
        return f"{self.site} in {self.step}" if self.step else self.site

    def summary(self) -> str:
        """One deterministic line describing this site's outcome."""
        rec = self.recovery
        repaired = (
            "-"
            if rec is None
            else (
                f"c{rec.in_doubt_committed}/a{rec.in_doubt_aborted}"
                f"/s{rec.staged_blocks_discarded}/p{rec.publishes_completed}"
                f"/g{rec.scavenged.get('gateway', 0)}"
            )
        )
        counts = ",".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        status = "ok" if self.ok else f"FAIL({len(self.problems)})"
        return (
            f"{self.label}: crash@{self.crashed_at_step or '-'} "
            f"recovery[{repaired}] rows[{counts}] {status}"
        )


@dataclass
class ChaosSweepResult:
    """Outcome of a full crash sweep."""

    seed: int
    sites: List[SiteResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every site crashed, recovered, and passed invariants."""
        return all(site.ok for site in self.sites)

    @property
    def failures(self) -> List[SiteResult]:
        """The sites whose invariants failed."""
        return [site for site in self.sites if not site.ok]

    def summary(self) -> List[str]:
        """Deterministic per-site summary lines (the determinism witness)."""
        return [site.summary() for site in self.sites]


def run_gateway_site(
    site: str, seed: int = 0, double_crash: bool = False
) -> SiteResult:
    """Crash the gateway at one ``service.*`` site mid-queue and recover.

    A fresh deployment gets a gateway and ten clients (eight trickle
    inserters of 50 rows each, two analytical readers) spawned as
    tasklets.  The armed site kills the "process" while requests are
    queued and/or mid-dispatch; recovery must scavenge every in-flight
    request (``sys.dm_requests`` shows nothing stuck ``queued`` /
    ``running``), no *acknowledged-completed* insert may be lost, and the
    gateway must serve new traffic afterwards.
    """
    from repro.service.gateway import Gateway

    config = chaos_config(seed)
    warehouse = Warehouse(config=config, auto_optimize=False)
    context = warehouse.context
    gateway = Gateway(context, seed=seed)
    recorder = HistoryRecorder().attach(context.bus)
    setup = warehouse.session()
    setup.create_table("ingest", WORKLOAD_SCHEMA, distribution_column="id")

    def inserter(index: int):
        """One trickle client: a staggered arrival, then one insert."""
        yield 0.05 * (index + 1)
        gateway.submit(
            f"tenant_{index % 2}",
            "transactional",
            lambda session, start=1000 * index: session.insert(
                "ingest", _batch(start, 50)
            ),
        )

    def reader(index: int):
        """One analytical client: read the table's live row count."""
        yield 0.12 * (index + 1)
        gateway.submit(
            "tenant_reader",
            "analytical",
            lambda session: session.table_snapshot("ingest").live_rows,
        )

    controller = ChaosController(seed=seed, telemetry=context.telemetry).arm(
        site, hits=SWEEP_HIT_PLAN.get(site, 1)
    )
    caught: List[str] = []
    with controller:
        for index in range(8):
            gateway.scheduler.spawn(inserter(index), name=f"chaos-txn-{index}")
        for index in range(2):
            gateway.scheduler.spawn(reader(index), name=f"chaos-olap-{index}")
        try:
            gateway.run()
        except SimulatedCrash as crash:
            caught.append(crash.site)

    result = SiteResult(
        site=site,
        crashed_at_step="gateway" if caught else "",
        recovery=None,
        problems=_swallowed(controller, caught),
    )
    if not controller.crashes:
        result.problems.append(
            f"{site}: armed but never fired — the gateway workload no "
            "longer reaches this site"
        )
    if not caught:
        recorder.detach()
        return result

    # Monotonic totals, not a ledger scan: the ledger evicts finished
    # records past gateway.FINISHED_HISTORY_CAP, which would undercount
    # the oracle.
    completed_inserts = gateway.finished_count(
        "completed", workload_class="transactional"
    )
    in_flight = len(gateway.requests_with_status("queued", "running"))

    if double_crash:
        report, recovery_problems = _recover_with_crashes(
            context, warehouse.sto, seed
        )
        result.problems.extend(recovery_problems)
    else:
        report = RecoveryManager(
            context, sto=warehouse.sto, strict=False
        ).recover()
    result.recovery = report
    # Double-crash partial passes already scavenged before the final
    # pass's report was taken, so the exact-count oracle only applies to
    # the single-recovery mode; the stuck/queued checks below hold always.
    if not double_crash and report.scavenged["gateway"] != in_flight:
        result.problems.append(
            f"scavenge reconciled {report.scavenged['gateway']} "
            f"request(s), ledger had {in_flight} in flight"
        )
    stuck = gateway.requests_with_status("queued", "running")
    if stuck:
        result.problems.append(
            f"{len(stuck)} request(s) stuck queued/running after recovery"
        )
    post = warehouse.session()
    view = post.sql("SELECT * FROM sys.dm_requests")
    for status in view["status"].tolist():
        if status in ("queued", "running"):
            result.problems.append(
                f"sys.dm_requests shows a {status} request after recovery"
            )
    sessions = post.sql("SELECT * FROM sys.dm_sessions")
    for state in sessions["state"].tolist():
        if state != "closed":
            result.problems.append(
                f"sys.dm_sessions shows a {state} session after recovery"
            )

    counts, integrity_problems = _observed_counts(context)
    result.problems.extend(integrity_problems)
    observed = counts.get("ingest", 0)
    allowed = {50 * completed_inserts, 50 * completed_inserts + 50}
    if observed not in allowed:
        result.problems.append(
            "atomicity violated: ingest has "
            f"{observed} live rows, allowed {sorted(allowed)} "
            f"({completed_inserts} insert(s) completed before the crash)"
        )

    # The gateway must still serve traffic: one post-recovery probe
    # request through the full admit/dispatch path.
    probe = gateway.submit(
        "tenant_probe",
        "transactional",
        lambda session: session.insert("ingest", _batch(5000, 50)),
    )
    gateway.run()
    if probe.status != "completed":
        result.problems.append(
            f"post-recovery probe request ended {probe.status!r}, "
            f"expected completed ({probe.error or 'no error'})"
        )
    after_counts, after_problems = _observed_counts(context)
    result.problems.extend(after_problems)
    if after_counts.get("ingest", 0) != observed + 50:
        result.problems.append(
            "post-recovery probe insert shows "
            f"{after_counts.get('ingest', 0)} rows, expected {observed + 50}"
        )
    result.counts = {"ingest": after_counts.get("ingest", 0)}
    recorder.detach()
    result.problems.extend(_check_si(recorder))
    return result


def run_site(
    site: str,
    seed: int = 0,
    double_crash: bool = False,
    step: Optional[str] = None,
) -> SiteResult:
    """Crash one fresh deployment at ``site``, recover, check invariants.

    The site fires at the hit :data:`SWEEP_HIT_PLAN` names or, given a
    :class:`ChaosWorkload` ``step``, at its first hit inside that step.
    With ``double_crash`` the restart is crashed too: recovery is re-run
    with each ``recovery.*`` site armed in turn (dying mid-pass every
    time) before the final clean pass the invariants are checked against.
    """
    if site.startswith("recovery."):
        raise ValueError(
            f"{site} only fires inside a recovery pass; use double_crash "
            "mode (--double-crash), which crashes recovery at every "
            "recovery.* site"
        )
    if site.startswith("service."):
        return run_gateway_site(site, seed, double_crash=double_crash)
    workload = ChaosWorkload(seed)
    warehouse = workload.warehouse
    context = warehouse.context
    controller = ChaosController(seed=seed, telemetry=context.telemetry)
    if step is None:
        controller.arm(site, hits=SWEEP_HIT_PLAN.get(site, 1))

    def before_step(name: str) -> None:
        """Arm ``site`` as ``step`` starts."""
        if name == step:
            controller.arm(site)

    with controller:
        crashed_at = workload.run_until_crash(before_step)
    result = SiteResult(
        site=site,
        crashed_at_step=crashed_at or "",
        recovery=None,
        problems=_swallowed(controller, workload.crashes_caught),
        step=step or "",
    )
    if not controller.crashes:
        result.problems.append(
            f"{site}: armed but never fired — the workload no longer "
            "reaches this site"
        )
    if crashed_at is None:
        workload.recorder.detach()
        return result

    if double_crash:
        report, recovery_problems = _recover_with_crashes(
            context, warehouse.sto, seed
        )
        result.problems.extend(recovery_problems)
    else:
        report = RecoveryManager(
            context, sto=warehouse.sto, strict=False
        ).recover()
    result.recovery = report
    for path in report.missing_manifests:
        result.problems.append(
            f"lost commit: recovery found no blob for manifest {path}"
        )

    counts, integrity_problems = _observed_counts(context)
    result.problems.extend(integrity_problems)
    result.counts = dict(counts)
    for table, observed in sorted(counts.items()):
        allowed = workload.allowed_counts(table)
        if observed not in allowed:
            result.problems.append(
                f"atomicity violated: {table} has {observed} live rows, "
                f"allowed {sorted(allowed)}"
            )

    # The warehouse must still take writes: a probe transaction against a
    # fresh table, plus one against a surviving table (exercising the
    # resynced publisher's version counter).
    session = warehouse.session()
    session.create_table("probe", WORKLOAD_SCHEMA, distribution_column="id")
    session.insert("probe", _batch(0, 25))
    probe_rows = session.table_snapshot("probe").live_rows
    if probe_rows != 25:
        result.problems.append(
            f"post-recovery probe insert shows {probe_rows} rows, expected 25"
        )
    if "orders" in counts:
        session.insert("orders", _batch(3000, 30))
        after = session.table_snapshot("orders").live_rows
        expected = counts["orders"] + 30
        if after != expected:
            result.problems.append(
                "post-recovery insert into orders shows "
                f"{after} rows, expected {expected}"
            )

    pre_gc_counts, __ = _observed_counts(context)
    result.problems.extend(_check_gc_safety(warehouse))
    post_gc_counts, post_gc_problems = _observed_counts(context)
    result.problems.extend(post_gc_problems)
    if post_gc_counts != pre_gc_counts:
        result.problems.append(
            "gc changed logical table contents: "
            f"{pre_gc_counts} -> {post_gc_counts}"
        )
    workload.recorder.detach()
    result.problems.extend(_check_si(workload.recorder))
    return result


def run_crash_sweep(
    seed: int = 0,
    sites: Optional[Sequence[str]] = None,
    double_crash: bool = False,
) -> ChaosSweepResult:
    """Crash at every workload-reachable site and verify recovery.

    One run per site, then the :data:`STEP_RUNS` of those sites.
    ``recovery.*`` sites are excluded from the default enumeration (they
    only fire inside a recovery pass); pass ``double_crash=True`` to
    additionally crash recovery itself at every one of them per run.
    """
    targets = list(sites) if sites is not None else list(WORKLOAD_SITES)
    result = ChaosSweepResult(seed=seed)
    for site in targets:
        result.sites.append(run_site(site, seed, double_crash=double_crash))
    for site, step in STEP_RUNS:
        if site in targets:
            result.sites.append(
                run_site(site, seed, double_crash=double_crash, step=step)
            )
    return result


# -- longevity -------------------------------------------------------------


@dataclass
class LongevityResult:
    """Outcome of one longevity (fault-soak) run."""

    seed: int
    steps: int
    failure_rate: float
    ops_completed: int = 0
    ops_failed: int = 0
    faults_injected: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the final integrity battery passed."""
        return not self.problems


def run_longevity(
    seed: int = 0, steps: int = 120, failure_rate: float = 0.02
) -> LongevityResult:
    """Soak one deployment under a seeded op mix with transient faults.

    No crashes are injected; instead every storage operation fails with
    ``failure_rate`` probability, exercising retries/backoff end to end.
    Operations that exhaust their budget (or hit a fault on an unretried
    path, exactly as a real STO job would) are counted and the workload
    moves on.  The run ends with the same integrity battery as the sweep.
    """
    config = chaos_config(seed)
    config.storage.transient_failure_rate = failure_rate
    warehouse = Warehouse(config=config, auto_optimize=False)
    warehouse.sto.auto_publish = True
    session = warehouse.session()
    recorder = HistoryRecorder().attach(warehouse.context.bus)
    result = LongevityResult(seed=seed, steps=steps, failure_rate=failure_rate)
    rng = Random(f"longevity:{seed}")

    session.create_table("t", WORKLOAD_SCHEMA, distribution_column="id")
    table_id = _catalog_tables(warehouse.context)["t"]
    next_id = 0

    def op_insert() -> None:
        """Insert a random-sized batch of fresh ids."""
        nonlocal next_id
        count = rng.randrange(20, 120)
        session.insert("t", _batch(next_id, count))
        next_id += count

    def op_update() -> None:
        """Update a random id range."""
        lo = rng.randrange(0, max(next_id, 1))
        session.update(
            "t",
            and_(
                BinOp(">=", Col("id"), Lit(lo)),
                BinOp("<", Col("id"), Lit(lo + 50)),
            ),
            {"v": BinOp("+", Col("v"), Lit(1.0))},
        )

    def op_delete() -> None:
        """Delete a random (possibly already-deleted) id range."""
        lo = rng.randrange(0, max(next_id, 1))
        session.delete(
            "t",
            and_(
                BinOp(">=", Col("id"), Lit(lo)),
                BinOp("<", Col("id"), Lit(lo + 10)),
            ),
        )

    def op_compact() -> None:
        """Compact the table."""
        warehouse.sto.run_compaction(table_id)

    def op_checkpoint() -> None:
        """Checkpoint the table."""
        warehouse.sto.run_checkpoint(table_id)

    def op_gc() -> None:
        """Advance past a slice of retention and garbage-collect."""
        warehouse.context.clock.advance(
            config.sto.retention_period_s / 4.0
        )
        warehouse.sto.run_gc()

    ops: List[Tuple[float, Callable[[], None]]] = [
        (0.45, op_insert),
        (0.18, op_update),
        (0.12, op_delete),
        (0.10, op_compact),
        (0.08, op_checkpoint),
        (0.07, op_gc),
    ]
    for __ in range(steps):
        draw = rng.random()
        cumulative = 0.0
        chosen = ops[-1][1]
        for weight, op in ops:
            cumulative += weight
            if draw < cumulative:
                chosen = op
                break
        try:
            chosen()
        except (TransientStorageError, TaskFailedError):
            # An unretried path faulted or a retry budget was exhausted;
            # a real deployment logs it and the next trigger retries.
            result.ops_failed += 1
        else:
            result.ops_completed += 1

    # The soak is over; the integrity battery must observe the store
    # without new faults being injected into its own reads.
    warehouse.context.store.faults.quiesce()
    metrics = warehouse.context.telemetry.metrics
    result.faults_injected = int(
        sum(metrics.values("storage.faults_injected").values())
    )
    __, problems = _observed_counts(warehouse.context)
    result.problems.extend(problems)
    result.problems.extend(_check_tombstones_bounded(warehouse.context, table_id))
    result.problems.extend(_check_gc_safety(warehouse))
    recorder.detach()
    result.problems.extend(_check_si(recorder))
    return result
