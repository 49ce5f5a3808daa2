"""Deterministic chaos harness: one seeded randomized driver.

:class:`Driver` runs a seeded stream of named ops against two tables
(``orders``, ``events``) through two interleaved sessions, and keeps a
trivially correct :class:`Model` in step.  After every op both tables are
compared with the model, values included (docs/ROBUSTNESS.md "The
driver").  On that one stream:

* :func:`run_driver` is the oracle run and the fault soak: storage faults
  (``config.storage.transient_failure_rate``) and task faults
  (``repro.dcp.scheduler.TASK_FAILURE_RATE``) are its two parameters.
* :func:`run_crash_sweep` runs the stream once and, before each op its
  seeded sample picked, forks one child that crashes at a hit of a site
  inside that op, recovers with a
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

import os
import pickle
import random
import sys
import threading
import traceback
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
from repro.pagefile.schema import Schema
from repro.sqldb import system_tables as catalog
from repro.sto.gc import creation_stamp, horizon_test, sequence_at_horizon, state_at
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

#: Sites the driver reaches; the crash sweep's sample crashes each of them.
DRIVER_SITES = tuple(site for site in WORKLOAD_SITES if not site.startswith("service."))
#: The commit-path sites: the sample crashes each inside ``commit``, the
#: commit of a transaction that wrote both tables.
COMMIT_PATH_SITES = tuple(s for s in DRIVER_SITES if s.startswith(("fe.commit.", "sqldb.commit.")))

#: Ops in the stream the crash sweep runs per seed, and the crashes it
#: draws beyond one per site, each in a (site, op) stratum of its own.
SWEEP_OPS = 240
SWEEP_EXTRA = 8


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
        ``create_index`` and ``checkpoint_on_commit`` an idle session.
        ``age_and_gc`` may age an open transaction past retention: GC
        keeps what its snapshot reads."""
        table = self.ops()
        names = list(table)
        weights = [weight for weight, __ in table.values()]
        needs_txn = {"commit": True, "rollback": True, "begin": False, "analyze": False,
                     "create_index": False, "checkpoint_on_commit": False}
        while True:
            name = self.rng.choices(names, weights)[0]
            sid = self.rng.randrange(2)
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

    # -- restart, battery --------------------------------------------------

    def restart(self, double_crash: bool = False) -> RecoveryReport:
        """Recover after a crash: both sessions and their transactions
        died, and the commit in flight, if any, is in doubt."""
        if double_crash:
            report, problems = _recover_with_crashes(self.context, self.warehouse.sto)
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
        self.problems.extend(check_storage_bounded(self.context))
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
    deleted = set(first.deleted)
    for path in sorted(deleted & protected):
        problems.append(f"gc deleted a live snapshot file: {path}")
    # Truncation may have shrunk the catalog; everything it still
    # references must have survived the pass.
    for path in sorted(_referenced_paths(context)):
        if not context.store.exists(path):
            problems.append(f"gc left a dangling reference: {path}")
    second = warehouse.sto.run_gc()
    if second.deleted:
        problems.append(
            "gc did not converge: a second pass with nothing changed deleted "
            f"{sorted(second.deleted)}"
        )
    if second.retained_recent:
        problems.append(
            "second GC pass still retains 'recent' files with no active "
            f"transactions: {sorted(second.retained_recent)}"
        )
    return problems


def check_storage_bounded(context) -> List[str]:
    """No data or DV blob older than GC's horizon outlives the last GC
    unless a readable state names it.

    The readable states of a table are the state at the horizon (its
    newest manifest committed below it) and the state after each later
    manifest; clones share files, so the states of every table count.
    This replays them one by one rather than asking GC for its keep set;
    the horizon itself is GC's (:func:`repro.sto.gc.horizon_test`).
    """
    below = horizon_test(context, context.sqldb.min_active_begin_ts())
    readable: Set[str] = set()
    txn = context.sqldb.begin()
    try:
        for table_id in _catalog_tables(context).values():
            rows = catalog.manifests_for_table(txn, table_id)
            if not rows:
                continue
            at_horizon = sequence_at_horizon(txn, table_id, rows, below)
            states = [state_at(context, table_id, at_horizon)]
            tail = context.cache.load_manifests(table_id, at_horizon, rows[-1]["sequence_id"])
            for seq, __, actions in tail:
                states.append(states[-1].apply_manifest(actions, seq))
            for state in states:
                readable.update(i.path for i in state.files.values())
                readable.update(i.path for i in state.dvs.values())
    finally:
        txn.abort()
    problems = []
    for blob in context.store.list(f"internal/{context.database}/tables/"):
        stamp = creation_stamp(blob)
        kind = blob.path.rsplit("/", 2)[-2]
        if kind in ("data", "dv") and below(stamp) and blob.path not in readable:
            problems.append(
                f"unbounded storage: {blob.path} (stamped {stamp}) is below "
                "the GC horizon and no readable state names it"
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


def _recover_with_crashes(context, sto) -> Tuple[RecoveryReport, List[str]]:
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
            controller = ChaosController(telemetry=context.telemetry).arm(site, hits=crashes + 1)
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
    """Outcome of one crash and the recovery after it."""

    site: str
    #: The step the crash fired in ("gateway" for a gateway site, "" if
    #: none reached the harness).
    crashed_at_step: str = ""
    recovery: Optional[RecoveryReport] = None
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: The op the site was armed in and the hit inside it that was armed
    #: ("" and 0 outside the driver).
    op: str = ""
    hit: int = 0

    @property
    def ok(self) -> bool:
        """Whether every invariant held for this crash."""
        return not self.problems

    @property
    def label(self) -> str:
        """The site, and the op and hit it was armed at if any."""
        return f"{self.site} in {self.op}#{self.hit}" if self.op else self.site

    def summary(self) -> str:
        """One deterministic line describing this crash's outcome."""
        rec = self.recovery
        repaired = "-" if rec is None else (
            f"c{rec.in_doubt_committed}/a{rec.in_doubt_aborted}/s{rec.staged_blocks_discarded}"
            f"/p{rec.publishes_completed}/g{rec.scavenged.get('gateway', 0)}"
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

    controller = ChaosController(telemetry=context.telemetry).arm(
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
        site, "gateway" if caught else "", problems=_swallowed(controller, caught)
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
        report, recovery_problems = _recover_with_crashes(context, warehouse.sto)
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


#: Where the stream hits each site inside its ops: (site, op) -> a
#: (step, hits in that step's op) pair per step whose op hit it.
Strata = Dict[Tuple[str, str], List[Tuple[int, int]]]


def count_hits(seed: int) -> Tuple[Strata, List[str]]:
    """The strata of the seed's stream of :data:`SWEEP_OPS` ops, counted by
    a controller installed while each op runs, and the stream's problems."""
    driver, controller = Driver(seed), ChaosController()
    strata: Strata = {}
    for step in range(1, SWEEP_OPS + 1):
        if driver.problems:
            break
        name, sid = driver.draw()
        before = Counter(controller.hits)
        driver.step(name, sid, controller)
        for site, hits in (Counter(controller.hits) - before).items():
            strata.setdefault((site, name), []).append((step, hits))
    return strata, driver.problems


def sample_crashes(seed: int, strata: Strata) -> List[Tuple[int, str, str, int]]:
    """The seed's crashes as (step, site, op, hit), in stream order: one
    per driver site in a random stratum of it (``commit`` for a
    commit-path site), then :data:`SWEEP_EXTRA` in strata no crash is in
    yet, each at a random hit.  Drawing strata before hits keeps a site
    hit a thousand times from swamping the sample."""
    rng = random.Random(f"sweep:{seed}")
    keys = sorted(strata)

    def crash_in(key: Tuple[str, str]) -> Tuple[int, str, str, int]:
        step, hits = rng.choice(strata[key])
        return step, key[0], key[1], rng.randint(1, hits)

    plan = []
    for site in DRIVER_SITES:
        ops = [op for name, op in keys if name == site]
        ops = [op for op in ops if op == "commit"] if site in COMMIT_PATH_SITES else ops
        if ops:
            plan.append(crash_in((site, rng.choice(ops))))
    crashed = {(site, op) for __, site, op, __ in plan}
    rest = [key for key in keys if key not in crashed]
    plan += [crash_in(key) for key in rng.sample(rest, min(SWEEP_EXTRA, len(rest)))]
    return sorted(plan)


def _crash(driver: Driver, sid: int, result: SiteResult, double_crash: bool) -> None:
    """Crash at ``result``'s hit inside its op, restart, then run the
    battery, eight more ops and the SI check."""
    controller = ChaosController(telemetry=driver.context.telemetry)
    caught: List[str] = []
    try:
        driver.step(result.op, sid, controller.arm(result.site, hits=result.hit))
    except SimulatedCrash as crash:
        caught.append(crash.site)
        result.crashed_at_step = str(driver.step_no)
    result.problems.extend(_swallowed(controller, caught))
    if not controller.crashes:
        result.problems.append(f"{result.label}: armed but never fired in step {driver.step_no}")
    if caught:
        result.recovery = driver.restart(double_crash)
        result.counts = driver.battery()
        driver.run(8)
    driver.finish()
    result.problems.extend(driver.problems)


def _forked(driver: Driver, sid: int, result: SiteResult, double_crash: bool) -> SiteResult:
    """:func:`_crash` in a forked child, which reports ``result`` through
    a pipe; the parent waits for it.  A child that exits nonzero or
    reports nothing fails ``result``."""
    if threading.active_count() > 1:
        raise RuntimeError("the crash sweep forks, so it must run single-threaded")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            _crash(driver, sid, result, double_crash)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()  # onto the parent's stderr
            sys.stderr.flush()
            raise
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        report = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0 and report:
        return pickle.loads(report)
    result.problems.append(
        f"the crash child exited with status {status} and {'a partial' if report else 'no'} report"
    )
    return result


def run_crash_sweep(
    seed: int = 0,
    sites: Optional[Sequence[str]] = None,
    double_crash: bool = False,
) -> ChaosSweepResult:
    """Crash the seed's stream at each hit :func:`sample_crashes` picked
    from :func:`count_hits`, and each gateway site once; verify recovery.

    The stream runs once more, and before each picked op one forked child
    crashes inside it (:func:`_forked`).  ``sites`` keeps the crashes at
    those sites, so ``sites=[X]`` reruns the sweep's lines for ``X``.  A
    driver site no op hits fails.  ``double_crash`` also crashes each
    recovery at every ``recovery.*`` site.
    """
    targets = list(sites) if sites is not None else list(WORKLOAD_SITES)
    unknown = sorted(set(targets) - set(WORKLOAD_SITES))
    if unknown:
        raise ValueError(f"not workload sites (recovery.* fire only in recovery): {unknown}")
    result = ChaosSweepResult(seed=seed)
    driven = [site for site in targets if site in DRIVER_SITES]
    plan: Dict[int, List[Tuple[str, int]]] = {}
    if driven:
        strata, problems = count_hits(seed)
        if problems:
            result.sites.append(SiteResult("stream", problems=problems))
        for step, site, __, hit in sample_crashes(seed, strata):
            if site in driven:
                plan.setdefault(step, []).append((site, hit))
    crashed = {site for crashes in plan.values() for site, __ in crashes}
    for site in sorted(set(driven) - crashed):
        ops = "commit" if site in COMMIT_PATH_SITES else "op"
        result.sites.append(SiteResult(site, problems=[
            f"{site}: no {ops} of the {SWEEP_OPS}-op stream of seed {seed} hits it"
        ]))
    driver = Driver(seed)
    for step in range(1, max(plan, default=0) + 1):
        name, sid = driver.draw()
        for site, hit in plan.get(step, ()):
            crash = SiteResult(site, op=name, hit=hit)
            result.sites.append(_forked(driver, sid, crash, double_crash))
        driver.step(name, sid)
    for site in targets:
        if site not in DRIVER_SITES:
            result.sites.append(run_gateway_site(site, seed, double_crash))
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
