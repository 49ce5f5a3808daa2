"""Deterministic chaos harness: one seeded randomized driver.

:class:`Driver` runs a seeded stream of named ops against two tables
(``orders``, ``events``) through two interleaved sessions, and keeps a
trivially correct :class:`Model` in step.  After every op both tables are
compared with the model, values included (docs/ROBUSTNESS.md "The
driver").  On that one stream:

* :func:`run_driver` is the oracle run and the fault soak: storage faults
  (``config.storage.transient_failure_rate``) and task faults
  (``repro.dcp.scheduler.TASK_FAILURE_RATE``) are its two parameters.
* :func:`run_crash_sweep` crashes a fresh deployment at every registered
  site (:func:`run_site`), recovers it with a
  :class:`~repro.chaos.recovery.RecoveryManager`, and runs the integrity
  battery: both tables equal the committed state or that state plus the
  commit in flight, jointly; no lost commit or torn snapshot; GC is
  crash-safe; history is bounded; then more ops, snapshot isolation over
  the whole history, and every crash raised reached the driver.
* :func:`run_gateway_site` crashes a gateway with ten clients mid-queue
  at the ``service.*`` sites.

Everything is seeded: the same seed yields byte-identical sweep
summaries, which is what makes a crash reproducible from its CLI line.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
    WriteConflictError,
)
from repro.engine.expressions import BinOp, Col, Lit, and_
from repro.engine.planner import TableScan
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

#: Which occurrence of each gateway site the sweep crashes at: with other
#: requests already admitted, so the scavenge has real mid-queue state to
#: reconcile, and (for the dispatch sites) with completed requests already
#: in the ledger.
SWEEP_HIT_PLAN: Dict[str, int] = {
    "service.admit.after_enqueue": 4,
    "service.dispatch.before_execute": 3,
    "service.dispatch.after_execute": 2,
}

#: Runs beyond the one per site: (site, op) arms the site only as op
#: starts.  ``commit`` commits a transaction that wrote both tables; the
#: ``*_on_*`` ops run the STO inline from a user statement.
STEP_RUNS: Tuple[Tuple[str, str], ...] = (
    ("fe.commit.after_sqldb_commit", "commit"),
    ("fe.commit.after_writesets", "commit"),
    ("fe.commit.before_validation", "commit"),
    ("sqldb.commit.after_install", "commit"),
    ("sqldb.commit.after_validate", "commit"),
    ("sqldb.commit.after_validate", "age_and_gc"),
    ("sqldb.commit.after_validate", "checkpoint"),
    ("sto.checkpoint.after_blob_put", "checkpoint_on_commit"),
    ("sto.checkpoint.before_blob_put", "checkpoint_on_commit"),
    ("sto.compaction.after_commit", "compact_on_scan"),
    ("sto.compaction.before_commit", "compact_on_scan"),
    ("sto.compaction.before_commit", "compact_on_tick"),
)


def chaos_config(seed: int = 0) -> PolarisConfig:
    """Deployment configuration scaled so every crashpoint is reachable.

    Small cells make every insert produce unhealthy (compactable) files;
    a high checkpoint threshold keeps checkpoints an explicit operation;
    a short retention period lets the driver age files past it.  Query
    store and wait stats are on (neither advances the clock) so
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


# -- the model and the driver ------------------------------------------------

#: One table's rows ``id -> v``; a write maps ``id`` to None for a delete.
Rows = Dict[int, Optional[float]]
#: The faults the driver injects; an op that raised one is no finding.
_FAULTS = (TransientStorageError, TaskFailedError)


def _applied(rows: Rows, changes: Rows) -> Rows:
    """``rows`` with ``changes`` applied (a new dict)."""
    out = dict(rows)
    for key, value in changes.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = value
    return out


@dataclass
class ModelTxn:
    """An open transaction: the committed state it began from, the
    :attr:`Driver.rewrites` counts at its start, its delta per table, and
    the tables it updated or deleted rows of."""

    base: Dict[str, Rows]
    epoch: Dict[str, int]
    delta: Dict[str, Rows] = field(default_factory=dict)
    rewrote: Set[str] = field(default_factory=set)


class Model:
    """The oracle: committed rows per table, and per session the open
    transaction, which reads its base plus its own writes."""

    def __init__(self, tables: Sequence[str]) -> None:
        # Committed dicts are replaced on commit, never mutated, so an open
        # transaction's base can share them.
        self.committed: Dict[str, Rows] = {table: {} for table in tables}
        self.txns: Dict[int, ModelTxn] = {}

    def view(self, sid: int, table: str) -> Rows:
        """What session ``sid`` reads of ``table``."""
        txn = self.txns.get(sid)
        if txn is None:
            return self.committed[table]
        return _applied(txn.base[table], txn.delta.get(table, {}))

    def after(self, delta: Dict[str, Rows]) -> Dict[str, Rows]:
        """The committed state with ``delta`` applied on top."""
        return {t: _applied(rows, delta.get(t, {})) for t, rows in self.committed.items()}


def _keys(lo: int, hi: int):
    """Predicate and prune list for ``lo <= id < hi`` (``id = lo`` when
    that is one key, so the scan reads the key's bucket only)."""
    if hi == lo + 1:
        return BinOp("==", Col("id"), Lit(lo)), [("id", "==", lo)]
    return (
        and_(BinOp(">=", Col("id"), Lit(lo)), BinOp("<", Col("id"), Lit(hi))),
        [("id", ">=", lo), ("id", "<", hi)],
    )


def _rows(batch) -> Rows:
    return dict(zip(batch["id"].tolist(), batch["v"].tolist()))


def _diff(table: str, got: Rows, want: Rows) -> str:
    """How ``got`` differs from ``want``, in a few keys."""
    wrong = {
        "missing": set(want) - set(got),
        "extra": set(got) - set(want),
        "wrong v": {k for k in set(got) & set(want) if got[k] != want[k]},
    }
    return f"{table} differs from the model ({len(got)} rows, model {len(want)}): " + (
        ", ".join(f"{what} {sorted(keys)[:3]}" for what, keys in wrong.items() if keys)
    )


class Driver:
    """One deployment, two sessions, and the model they are checked against.

    :meth:`draw` picks an op and a session, :meth:`step` runs it and checks
    both tables.  A :class:`SimulatedCrash` passes through with
    :attr:`pending` naming the commit in flight, which :meth:`restart`
    holds in doubt.
    """

    tables = ("orders", "events")

    def __init__(
        self,
        seed: int = 0,
        conflict_granularity: str = "table",
        auto_optimize: bool = False,
        storage_failure_rate: float = 0.0,
    ) -> None:
        self.config = chaos_config(seed)
        self.config.txn.conflict_granularity = conflict_granularity
        self.config.storage.transient_failure_rate = storage_failure_rate
        self.warehouse = Warehouse(config=self.config, auto_optimize=auto_optimize)
        self.warehouse.sto.auto_publish = True
        self.context = self.warehouse.context
        self.recorder = HistoryRecorder().attach(self.context.bus)
        self.rng = random.Random(f"driver:{seed}")
        self.model = Model(self.tables)
        self.sessions = [self.warehouse.session(), self.warehouse.session()]
        self.table_ids = {
            table: self.sessions[0].create_table(
                table, WORKLOAD_SCHEMA, distribution_column="id",
                sort_column="id" if table == "events" else None,
            )
            for table in self.tables
        }
        #: Committed rewrites (updates, deletes, compactions) per table: an
        #: open transaction may lose first-committer-wins only if one
        #: landed on a table it updated or deleted rows of.
        self.rewrites: Counter = Counter()
        self._compactions_seen = 0
        #: The commit in flight, and a commit that raised a fault: (delta,
        #: tables it rewrote).  The next check adopts the state before or
        #: after an in-doubt commit.
        self.pending: Optional[Tuple[Dict[str, Rows], Set[str]]] = None
        self.in_doubt: Optional[Tuple[Dict[str, Rows], Set[str]]] = None
        self.next_id = 0
        self.step_no = 0
        self.problems: List[str] = []
        #: Sites of the crashes :meth:`run_until_crash` caught, in order.
        self.crashes_caught: List[str] = []
        #: Ops "completed", "faulted" (raised an injected fault) and "lost"
        #: (lost first-committer-wins).
        self.outcomes: Counter = Counter()

    def ops(self) -> Dict[str, Tuple[int, Callable[[int], None]]]:
        """Every op by name: (weight, body taking the session index)."""
        return {
            "insert": (6, self.op_insert),
            "bulk_load": (2, self.op_bulk_load),
            "delete_range": (3, lambda sid: self._delete(sid, 30)),
            "delete_point": (2, lambda sid: self._delete(sid, 1)),
            "update_range": (3, lambda sid: self._update(sid, 20, None)),
            "update_point": (2, lambda sid: self._update(sid, 1, round(self.rng.random(), 3))),
            "move_keys": (2, self.op_move_keys),
            "begin": (3, self.op_begin),
            "commit": (4, self.op_commit),
            "rollback": (1, self._abandon),
            "analyze": (2, lambda sid: self.sessions[sid].analyze_table(self._table())),
            "create_index": (2, self.op_create_index),
            "compact": (2, lambda sid: self.warehouse.sto.run_compaction(self._table_id())),
            "checkpoint": (2, lambda sid: self.warehouse.sto.run_checkpoint(self._table_id())),
            "checkpoint_on_commit": (2, self.op_checkpoint_on_commit),
            "compact_on_scan": (2, self.op_compact_on_scan),
            "compact_on_tick": (2, self.op_compact_on_tick),
            "age_and_gc": (2, self.op_age_and_gc),
            "invalidate_cache": (1, lambda sid: self.context.cache.invalidate()),
        }

    def draw(self) -> Tuple[str, int]:
        """The next (op, session) whose precondition holds: ``commit`` and
        ``rollback`` need an open transaction; ``begin``, ``analyze``,
        ``create_index`` and ``checkpoint_on_commit`` an idle session;
        ``age_and_gc`` no open transaction at all (GC protects nothing a
        transaction older than retention reads)."""
        table = self.ops()
        names = list(table)
        weights = [weight for weight, __ in table.values()]
        needs_txn = {"commit": True, "rollback": True, "begin": False, "analyze": False,
                     "create_index": False, "checkpoint_on_commit": False}
        while True:
            name = self.rng.choices(names, weights)[0]
            sid = self.rng.randrange(2)
            if name == "age_and_gc" and self.model.txns:
                continue
            if name not in needs_txn:
                return name, sid
            for candidate in (sid, 1 - sid):
                if (candidate in self.model.txns) == needs_txn[name]:
                    return name, candidate

    def step(self, name: str, sid: int, during=None) -> None:
        """Run one op in session ``sid`` (inside the ``during`` context),
        then check both tables."""
        self.step_no += 1
        try:
            with during or nullcontext():
                self.ops()[name][1](sid)
        except _FAULTS:
            # An op outside the model's DML (a compaction, a GC, ...) hit
            # an injected fault; it may have committed a rewrite first.
            self.outcomes["faulted"] += 1
            self.rewrites.update(self.tables)
        except PolarisError as exc:
            self.problems.append(f"step {self.step_no} ({name}): raised {exc!r}")
            return
        else:
            self.outcomes["completed"] += 1
        self.check(sid, name)

    def run(self, ops: int) -> None:
        """Run ``ops`` drawn ops, stopping at the first problem."""
        for __ in range(ops):
            if self.problems:
                return
            self.step(*self.draw())

    # -- keeping the model in step -------------------------------------------

    def _epoch(self) -> Dict[str, int]:
        """The rewrite counts now, with the compactions the STO committed
        since the last look folded in."""
        sto = self.warehouse.sto
        names = {tid: name for name, tid in self.table_ids.items()}
        for result in sto.compactions[self._compactions_seen:]:
            if result.committed and result.files_rewritten:
                self.rewrites[names[result.table_id]] += 1
        self._compactions_seen = len(sto.compactions)
        return dict(self.rewrites)

    def _commit(self, delta: Dict[str, Rows], rewrote: Set[str], epoch, run: Callable[[], object]):
        """Run ``run``, which commits ``delta``; returns its result, or
        None if it lost first-committer-wins or raised a fault."""
        self.pending = (delta, rewrote)
        try:
            result = run()
        except WriteConflictError:
            now = self._epoch()
            if not any(now.get(t, 0) > epoch.get(t, 0) for t in rewrote):
                self.problems.append(
                    f"step {self.step_no}: a commit lost first-committer-wins with no "
                    f"concurrent rewrite of a table it rewrote ({sorted(rewrote)})"
                )
            self.outcomes["lost"] += 1
            result = None
        except _FAULTS:
            self.in_doubt = (delta, rewrote)
            self.outcomes["faulted"] += 1
            # Whatever the STO ran inline may have committed before it.
            self.rewrites.update(self.tables)
            result = None
        else:
            self._apply(delta, rewrote)
        self.pending = None
        return result

    def _apply(self, delta: Dict[str, Rows], rewrote: Set[str]) -> None:
        self.model.committed = self.model.after(delta)
        self.rewrites.update(rewrote)

    def _write(self, sid: int, table: str, changes: Rows, statement, matched=None) -> None:
        """Run one DML statement in session ``sid`` and the model: inside
        its open transaction, or as its own auto-commit transaction.
        ``changes`` is what it does to what ``sid`` reads; ``matched`` the
        rows an UPDATE or DELETE matches (None for an INSERT), which the
        statement must report."""
        session = self.sessions[sid]
        txn = self.model.txns.get(sid)
        rewrote = {table} if matched else set()
        if txn is None:
            count = self._commit({table: changes}, rewrote, self._epoch(), lambda: statement(session))
        else:
            try:
                count = statement(session)
            except _FAULTS:
                self.outcomes["faulted"] += 1
                self._abandon(sid)
                return
            txn.delta[table] = {**txn.delta.get(table, {}), **changes}
            txn.rewrote |= rewrote
        expected = len(changes) if matched is None else matched
        if count is not None and count != expected:
            self.problems.append(
                f"step {self.step_no}: a statement on {table} reported {count} rows, "
                f"the model {expected}"
            )

    def _abandon(self, sid: int) -> None:
        """Roll back session ``sid``'s transaction, in both."""
        if self.sessions[sid].in_transaction:
            self.sessions[sid].rollback()
        self.model.txns.pop(sid, None)

    # -- checking ------------------------------------------------------------

    def _observe(self, read: Callable[[], object]):
        """``read()`` with storage faults paused, retried over task faults:
        a read changes nothing, so a fault in it is no finding."""
        with self.context.store.faults.paused():
            for __ in range(7):
                try:
                    return read()
                except TaskFailedError:
                    pass
            return read()

    def check(self, sid: int, after: str = "") -> None:
        """Compare both tables, as session ``sid`` reads them, with the
        model: all rows through SQL, one key through a scan pruned to its
        bucket.  A commit in doubt is resolved here, jointly across
        tables."""
        if self.problems:
            return
        session = self.sessions[sid]
        observed = {
            t: _rows(self._observe(lambda: session.sql(f"SELECT id, v FROM {t}")))
            for t in self.tables
        }
        where = f"step {self.step_no}" + (f" ({after})" if after else "")
        if self.in_doubt is not None and sid not in self.model.txns:
            (delta, rewrote), self.in_doubt = self.in_doubt, None
            if observed == self.model.after(delta):
                self._apply(delta, rewrote)
            elif observed != self.model.committed:
                diffs = "; ".join(
                    _diff(t, observed[t], rows)
                    for t, rows in self.model.after(delta).items()
                    if observed[t] != rows
                )
                self.problems.append(
                    f"{where}: a commit in doubt left neither the state before "
                    f"it nor the one after it: {diffs} (after it)"
                )
                return
        for table in self.tables:
            want = self.model.view(sid, table)
            if observed[table] != want:
                self.problems.append(f"{where}: " + _diff(table, observed[table], want))
                return
            key = self.rng.randrange(self.next_id + 1)
            predicate, prune = _keys(key, key + 1)
            plan = TableScan(table, ("id", "v"), predicate=predicate, prune=tuple(prune))
            got = _rows(self._observe(lambda: session.query(plan)))
            if got != ({key: want[key]} if key in want else {}):
                self.problems.append(
                    f"{where}: point lookup of {table} id={key} read {got}, "
                    f"model {want.get(key)}"
                )
                return

    # -- ops ---------------------------------------------------------------------

    def _table(self) -> str:
        return self.rng.choice(self.tables)

    def _table_id(self) -> int:
        return self.table_ids[self._table()]

    def _fresh(self, count: int) -> Dict[str, np.ndarray]:
        ids = np.arange(self.next_id, self.next_id + count, dtype=np.int64)
        self.next_id += count
        values = [round(self.rng.random(), 3) for __ in range(count)]
        return {"id": ids, "v": np.array(values, dtype=np.float64)}

    def _range(self, sid: int, table: str, width: int) -> Tuple[int, int]:
        """``[lo, lo + 1..width)``: half the time, inside a transaction that
        wrote ``table``, from a key it wrote (so a second statement reaches
        files the first gave a deletion vector, and replaces it)."""
        txn = self.model.txns.get(sid)
        own = sorted(txn.delta.get(table, ())) if txn is not None else []
        if own and self.rng.random() < 0.5:
            lo = max(0, self.rng.choice(own) + self.rng.randint(-4, 0))
        else:
            lo = self.rng.randrange(self.next_id + 1)
        return lo, lo + self.rng.randint(1, width)

    def op_insert(self, sid: int, table: Optional[str] = None, most: int = 40) -> None:
        """INSERT a batch of fresh ids."""
        table = table or self._table()
        batch = self._fresh(self.rng.randint(1, most))
        self._write(sid, table, _rows(batch), lambda s: s.insert(table, batch))

    def op_bulk_load(self, sid: int) -> None:
        """Bulk load 1-3 source files (its files hold rows of every bucket)."""
        table = self._table()
        sources = [self._fresh(self.rng.randint(1, 25)) for __ in range(self.rng.randint(1, 3))]
        changes = {k: v for source in sources for k, v in _rows(source).items()}
        self._write(sid, table, changes, lambda s: s.bulk_load(table, sources))

    def _delete(self, sid: int, width: int) -> None:
        """DELETE up to ``width`` consecutive keys."""
        table = self._table()
        lo, hi = self._range(sid, table, width)
        predicate, prune = _keys(lo, hi)
        changes = {k: None for k in self.model.view(sid, table) if lo <= k < hi}
        self._write(
            sid, table, changes, lambda s: s.delete(table, predicate, prune=prune),
            matched=len(changes),
        )

    def _update(
        self, sid: int, width: int, value: Optional[float], table: str = "",
        lo: Optional[int] = None,
    ) -> None:
        """UPDATE ... SET v = value (v + 1 for None) over up to ``width``
        consecutive keys (from ``lo`` if given)."""
        table = table or self._table()
        if lo is None:
            lo, hi = self._range(sid, table, width)
        else:
            hi = lo + self.rng.randint(1, width)
        changes = {
            k: v + 1.0 if value is None else value
            for k, v in self.model.view(sid, table).items()
            if lo <= k < hi
        }
        predicate, prune = _keys(lo, hi)
        assignment = BinOp("+", Col("v"), Lit(1.0)) if value is None else Lit(value)
        self._write(
            sid, table, changes,
            lambda s: s.update(table, predicate, {"v": assignment}, prune=prune),
            matched=len(changes),
        )

    def op_move_keys(self, sid: int) -> None:
        """UPDATE ... SET id = id + c: rows move to fresh keys (other buckets)."""
        table = self._table()
        lo, hi = self._range(sid, table, 1 if self.rng.random() < 0.5 else 15)
        offset = self.next_id - lo
        self.next_id += hi - lo
        moved = {k: v for k, v in self.model.view(sid, table).items() if lo <= k < hi}
        changes: Rows = {k: None for k in moved}
        changes.update({k + offset: v for k, v in moved.items()})
        predicate, prune = _keys(lo, hi)
        assignment = {"id": BinOp("+", Col("id"), Lit(offset))}
        self._write(
            sid, table, changes,
            lambda s: s.update(table, predicate, assignment, prune=prune),
            matched=len(moved),
        )

    def op_begin(self, sid: int) -> None:
        """BEGIN, then write both tables: an INSERT into orders, and an
        UPDATE of events (an INSERT while events is empty)."""
        self.sessions[sid].begin()
        self.model.txns[sid] = ModelTxn(base=self.model.committed, epoch=self._epoch())
        self.op_insert(sid, "orders", most=10)
        if sid in self.model.txns:
            self._touch_events(sid)

    def _touch_events(self, sid: int) -> None:
        """UPDATE events SET v = v + 1 from a live key on."""
        keys = sorted(self.model.view(sid, "events"))
        if keys:
            self._update(sid, 20, None, "events", lo=self.rng.choice(keys))
        else:
            self.op_insert(sid, "events", most=10)

    def op_commit(self, sid: int) -> None:
        """COMMIT the session's transaction."""
        txn = self.model.txns.pop(sid)
        self._commit(txn.delta, txn.rewrote, txn.epoch, self.sessions[sid].commit)

    def op_create_index(self, sid: int) -> None:
        """CREATE INDEX (blob put, then catalog row)."""
        table = self._table()
        column = self.rng.choice(("id", "v"))
        self.sessions[sid].create_index(table, f"idx_{table}_{self.step_no}", column)

    @contextmanager
    def _sto_inline(self, checkpoint_threshold: Optional[int] = None) -> Iterator[None]:
        """The STO runs from user statements while the block runs."""
        sto, settings = self.warehouse.sto, self.config.sto
        enabled, threshold = sto.enabled, settings.checkpoint_manifest_threshold
        sto.enabled = True
        settings.checkpoint_manifest_threshold = checkpoint_threshold or threshold
        try:
            yield
        finally:
            sto.enabled = enabled
            settings.checkpoint_manifest_threshold = threshold

    def op_checkpoint_on_commit(self, sid: int) -> None:
        """An auto-commit UPDATE of events, whose commit event checkpoints
        events inside the statement (STO on, threshold 1)."""
        with self._sto_inline(checkpoint_threshold=1):
            self._touch_events(sid)

    def _scan_after_poll(self, sid: int, table: str) -> None:
        """A scan (its statistics schedule a compaction of undersized
        files), then the clock past the compaction's due time."""
        self.sessions[sid].sql(f"SELECT id FROM {table}")
        self.context.clock.advance(self.config.sto.poll_interval_s)

    def op_compact_on_scan(self, sid: int) -> None:
        """The second of two scans drains the compaction the first one
        scheduled, inside the statement."""
        table = self._table()
        with self._sto_inline():
            self._scan_after_poll(sid, table)
            self.sessions[sid].sql(f"SELECT id FROM {table}")

    def op_compact_on_tick(self, sid: int) -> None:
        """An UPDATE leaves undersized files, a scan schedules their
        compaction, and ``tick()`` runs it."""
        table = self._table()
        with self._sto_inline():
            self._update(sid, 20, None, table)
            self._scan_after_poll(sid, table)
            self.warehouse.sto.tick()

    def op_age_and_gc(self, sid: int) -> None:
        """Age everything past retention, then garbage-collect."""
        self.context.clock.advance(self.config.sto.retention_period_s + 60.0)
        self.warehouse.sto.run_gc()

    # -- crash, restart, battery ---------------------------------------------

    @contextmanager
    def _armed(self, controller: ChaosController, site: str) -> Iterator[None]:
        controller.arm(site)
        try:
            yield
        finally:
            controller.disarm(site)

    def run_until_crash(
        self, controller: ChaosController, site: str, op: Optional[str] = None
    ) -> str:
        """Run up to 400 ops with ``site`` armed while each op (or
        each op named ``op``) runs; the checks run unarmed.  Returns
        ``"step:op"`` of the crash caught, or "" if none was (the site
        never fired, a handler swallowed it, or a check failed first).
        The driver, not product code, catches :class:`SimulatedCrash`: it
        plays the supervisor observing the process die."""
        for __ in range(400):
            if self.problems or controller.crashes:
                return ""
            name, sid = self.draw()
            try:
                self.step(name, sid, self._armed(controller, site) if op in (None, name) else None)
            except SimulatedCrash as crash:
                self.crashes_caught.append(crash.site)
                return f"{self.step_no}:{name}"
        return ""

    def restart(self, double_crash: bool = False, seed: int = 0) -> RecoveryReport:
        """Recover after a crash: both sessions and their transactions
        died, and the commit in flight, if any, is in doubt."""
        if double_crash:
            report, problems = _recover_with_crashes(self.context, self.warehouse.sto, seed)
            self.problems.extend(problems)
        else:
            report = RecoveryManager(self.context, sto=self.warehouse.sto, strict=False).recover()
        for path in report.missing_manifests:
            self.problems.append(f"lost commit: recovery found no blob for manifest {path}")
        self.model.txns.clear()
        self.sessions = [self.warehouse.session(), self.warehouse.session()]
        self.in_doubt, self.pending = self.pending, None
        return report

    def battery(self) -> Dict[str, int]:
        """The integrity battery; returns each table's live row count."""
        counts, problems = _observed_counts(self.context)
        self.problems.extend(problems)
        if self.problems:
            return counts
        self.context.cache.invalidate()
        self.check(0, "cold read")
        self.problems.extend(_check_gc_safety(self.warehouse))
        self.check(1, "after gc")
        for table_id in self.table_ids.values():
            self.problems.extend(_check_tombstones_bounded(self.context, table_id))
        return counts

    def finish(self) -> None:
        """Detach the history recorder and check snapshot isolation."""
        self.recorder.detach()
        self.problems.extend(_check_si(self.recorder))


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


def _referenced_paths(context, live_only: bool = False) -> Set[str]:
    """Every internal path the catalog makes reachable; with
    ``live_only``, the latest snapshots' data and DV files alone."""
    referenced: Set[str] = set()
    txn = context.sqldb.begin()
    try:
        for table_id in _catalog_tables(context).values():
            rows = catalog.manifests_for_table(txn, table_id)
            if rows:
                snapshot = context.cache.get(table_id, rows[-1]["sequence_id"])
                referenced.update(i.path for i in snapshot.files.values())
                referenced.update(i.path for i in snapshot.dvs.values())
            if live_only:
                continue
            referenced.update(row["manifest_path"] for row in rows)
            for ckpt in catalog.checkpoints_for_table(txn, table_id):
                referenced.add(ckpt["path"])
            for index_row in catalog.indexes_for_table(txn, table_id):
                referenced.add(index_row["path"])
    finally:
        txn.abort()
    return referenced


def _check_gc_safety(warehouse: Warehouse) -> List[str]:
    """Run GC twice with no transaction open; verify safety and orphan
    convergence.

    GC may truncate (and then delete) aged manifest and checkpoint blobs,
    but never a latest snapshot's data or DV file; after each pass,
    everything the (possibly shrunken) catalog still references must
    exist.
    """
    problems: List[str] = []
    context = warehouse.context
    protected = _referenced_paths(context, live_only=True)
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
    #: ``"step:op"`` of the crash ("gateway" for a gateway site, "" if
    #: none reached the harness).
    crashed_at_step: str
    recovery: Optional[RecoveryReport]
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: The op the site was armed in ("" = every op).
    op: str = ""

    @property
    def ok(self) -> bool:
        """Whether every invariant held for this site."""
        return not self.problems

    @property
    def label(self) -> str:
        """The site, and the op it was armed in if any."""
        return f"{self.site} in {self.op}" if self.op else self.site

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
    op: Optional[str] = None,
) -> SiteResult:
    """Crash one fresh deployment at ``site``, recover, check invariants.

    The driver's stream runs with ``site`` armed as each op (or each op
    named ``op``) starts, until it fires.  With ``double_crash`` the
    restart is crashed too: recovery is re-run with each ``recovery.*``
    site armed in turn (dying mid-pass every time) before the final clean
    pass the battery is checked against.  The stream then continues for
    eight more ops.
    """
    if site.startswith("recovery."):
        raise ValueError(
            f"{site} only fires inside a recovery pass; use double_crash "
            "mode (--double-crash), which crashes recovery at every "
            "recovery.* site"
        )
    if site.startswith("service."):
        return run_gateway_site(site, seed, double_crash=double_crash)
    driver = Driver(seed)
    controller = ChaosController(seed=seed, telemetry=driver.context.telemetry)
    with controller:
        crashed_at = driver.run_until_crash(controller, site, op)
    result = SiteResult(
        site=site,
        crashed_at_step=crashed_at,
        recovery=None,
        problems=_swallowed(controller, driver.crashes_caught),
        op=op or "",
    )
    if not controller.crashes:
        result.problems.append(
            f"{site}: armed but never fired — the driver no longer "
            "reaches this site"
        )
    if crashed_at:
        result.recovery = driver.restart(double_crash, seed)
        result.counts = driver.battery()
        driver.run(8)
    driver.finish()
    result.problems.extend(driver.problems)
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
    for site, op in STEP_RUNS:
        if site in targets:
            result.sites.append(
                run_site(site, seed, double_crash=double_crash, op=op)
            )
    return result


# -- the oracle run ----------------------------------------------------------


def run_driver(
    seed: int = 0,
    ops: int = 80,
    conflict_granularity: str = "table",
    auto_optimize: bool = False,
    storage_failure_rate: float = 0.0,
) -> Driver:
    """Run ``ops`` ops checked against the model, commit what is still
    open, then the integrity battery with storage faults stopped; returns
    the driver (``problems`` empty when every check held).

    Task faults are ``repro.dcp.scheduler.TASK_FAILURE_RATE``; set it
    around the call to inject them.
    """
    driver = Driver(seed, conflict_granularity, auto_optimize, storage_failure_rate)
    driver.run(ops)
    for sid in sorted(driver.model.txns):
        if not driver.problems:
            driver.step("commit", sid)
    # The battery must observe the store, not fight it.
    driver.context.store.faults.quiesce()
    driver.battery()
    driver.finish()
    return driver
