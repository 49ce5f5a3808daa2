"""txn_contention — the write/commit path the paper is about.

Four ``SqlSession`` clients on one small table with
``conflict_granularity="file"`` and the STO on.  A *txn round* interleaves
two explicit transactions statement by statement (multi-row INSERT, UPDATE
of a seeded key, a filtered aggregate, COMMIT/COMMIT), so a deterministic
fraction lose first-committer-wins and are re-run alone by the client, at
most three times.  The simulated clock moves between txn rounds so
checkpoints, compaction and GC cycle several times.  After every 20th txn
round the process "dies" inside a commit (two crash sites, alternating)
and the restart — ``RecoveryManager.recover()``, new sessions, a cold
probe query — is timed.

Every benchmark round builds a fresh warehouse and runs 80 txn rounds
(160 logical transactions = operations, 4 restarts), because per-txn cost
grows with the length of the commit history: independent rounds keep the
work per round the same however many rounds fit into the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import Schema, SqlSession, Warehouse, WriteConflictError
from repro.chaos import ChaosController, SimulatedCrash

from benchmarks.e2e.workloads.base import (
    OpTimer,
    RoundResult,
    Workload,
    add_recovery_counts,
    bench_config,
    counter_delta,
    engine_counters,
    resident_bytes,
)

BASE_ROWS = 2_000
CLIENTS = 4
ROWS_PER_INSERT = 5
#: id, bal, grp — three 8-byte columns.
ROW_BYTES = 24
GROUPS = 10
CLIENT_RETRIES = 3
#: Simulated seconds between txn rounds; with the 600 s retention below an
#: 80-txn-round benchmark round sees five GC cycles.
THINK_SIM_S = 20.0
RETENTION_SIM_S = 600.0
CRASH_EVERY = 20
CRASH_SITES = ("fe.commit.after_writesets", "sqldb.commit.after_install")

TOTALS_SQL = "SELECT COUNT(*) AS n, SUM(bal) AS s FROM acct"


@dataclass
class AcctState:
    """One contention deployment and the driver's ledger of acked commits."""

    dw: Warehouse
    sessions: List[SqlSession]
    #: Acknowledged state: live rows and sum(bal).
    rows: int
    balance: float
    next_id: int
    user_bytes: int
    #: Set while a crashed commit is in doubt: its (rows, balance) delta.
    in_doubt: Tuple[int, float] = (0, 0.0)


def _transaction(state: AcctState, key: int) -> List[str]:
    """The three statements of one logical transaction."""
    base = state.next_id
    state.next_id += ROWS_PER_INSERT
    values = ", ".join(
        f"({base + i}, 10.0, {(base + i) % GROUPS})" for i in range(ROWS_PER_INSERT)
    )
    return [
        f"INSERT INTO acct (id, bal, grp) VALUES {values}",
        f"UPDATE acct SET bal = bal + 1.0 WHERE id = {key}",
        f"SELECT COUNT(*) AS n, SUM(bal) AS s FROM acct WHERE grp = {key % GROUPS}",
    ]


#: What one committed transaction adds to (rows, sum(bal)).
TXN_DELTA = (ROWS_PER_INSERT, ROWS_PER_INSERT * 10.0 + 1.0)


class TxnContention(Workload):
    """Interleaved explicit transactions, client retries, timed restarts."""

    name = "txn_contention"
    fresh_per_round = True
    idle_restarts_per_round = 0

    @property
    def txn_rounds(self) -> int:
        return 3 if self.quick else 80

    @property
    def crash_every(self) -> int:
        return 3 if self.quick else CRASH_EVERY

    def setup(self) -> AcctState:
        config = bench_config(self.seed)
        config.txn.conflict_granularity = "file"
        config.sto.retention_period_s = RETENTION_SIM_S
        dw = Warehouse(config=config, auto_optimize=True)
        dw.sto.schedule_periodic_gc()
        session = dw.session()
        session.create_table(
            "acct",
            Schema.of(("id", "int64"), ("bal", "float64"), ("grp", "int64")),
            "id",
        )
        ids = np.arange(BASE_ROWS, dtype=np.int64)
        session.insert(
            "acct",
            {"id": ids, "bal": np.full(BASE_ROWS, 100.0), "grp": ids % GROUPS},
        )
        state = AcctState(
            dw=dw,
            sessions=[],
            rows=BASE_ROWS,
            balance=BASE_ROWS * 100.0,
            next_id=BASE_ROWS,
            user_bytes=BASE_ROWS * ROW_BYTES,
        )
        self._reconnect(state)
        return state

    @staticmethod
    def _reconnect(state: AcctState) -> None:
        state.sessions = [SqlSession(state.dw.session()) for _ in range(CLIENTS)]

    # -- one round -------------------------------------------------------------

    def run_round(self, state: AcctState, k: int) -> RoundResult:
        dw = state.dw
        rng = self.round_rng(k)
        before = engine_counters(dw)
        timer = self.timer(dw)
        counts: Dict[str, float] = {
            "fe.commit_attempts": 0,
            "fe.commit_aborts": 0,
            "fe.client_retries": 0,
        }
        restarts: List[Tuple[float, float]] = []
        background_wall = 0.0
        failed = 0
        for r in range(self.txn_rounds):
            first = state.sessions[(2 * r) % CLIENTS]
            second = state.sessions[(2 * r + 1) % CLIENTS]
            keys = rng.integers(0, BASE_ROWS, size=2)
            failed += self._interleave(
                state, timer, counts, (first, int(keys[0])), (second, int(keys[1]))
            )
            _, wall, _ = timer.segment(lambda: self._think(dw))
            background_wall += wall
            if (r + 1) % self.crash_every == 0:
                site = CRASH_SITES[((r + 1) // self.crash_every) % len(CRASH_SITES)]
                self._crash(state, site, int(rng.integers(0, BASE_ROWS)))
                restart_ms, recover_ms, report = self.restart(state)
                restarts.append((restart_ms, recover_ms))
                add_recovery_counts(counts, report)
                self._reconnect(state)
        totals = state.sessions[0].execute(TOTALS_SQL)
        observed = (int(totals["n"][0]), float(totals["s"][0]))
        if observed != (state.rows, state.balance):
            self.problems.append(
                f"round {k}: table holds (rows, sum(bal)) {observed}, "
                f"ledger of acknowledged commits says {(state.rows, state.balance)}"
            )
        counters = counter_delta(engine_counters(dw), before)
        counters.update(counts)
        return timer.round_result(
            wall_s=sum(timer.wall_s) + background_wall,
            attempted=2 * self.txn_rounds,
            failed=failed,
            counters=counters,
            restarts=restarts,
            write_amp=dw.store.meter.bytes_written / state.user_bytes,
            space_amp=resident_bytes(dw) / (state.rows * ROW_BYTES),
        )

    @staticmethod
    def _think(dw: Warehouse) -> None:
        dw.clock.advance(THINK_SIM_S)
        dw.sto.tick()

    def _interleave(self, state, timer: OpTimer, counts, *clients) -> int:
        """Two transactions statement by statement; returns how many failed."""
        scripts = [(sql, _transaction(state, key)) for sql, key in clients]
        spent = [[0.0, 0.0] for _ in scripts]

        def step(index: int, sql: SqlSession, text: str):
            _, wall, sim = timer.segment(lambda: sql.execute(text))
            spent[index][0] += wall
            spent[index][1] += sim

        for index, (sql, _) in enumerate(scripts):
            step(index, sql, "BEGIN")
        for position in range(len(scripts[0][1])):
            for index, (sql, script) in enumerate(scripts):
                step(index, sql, script[position])
        failed = 0
        for index, (sql, script) in enumerate(scripts):
            committed = self._commit(index, sql, script, step, counts)
            if committed:
                timer.record(*spent[index])
                state.rows += TXN_DELTA[0]
                state.balance += TXN_DELTA[1]
                state.user_bytes += (ROWS_PER_INSERT + 1) * ROW_BYTES
            else:
                failed += 1
        return failed

    @staticmethod
    def _commit(index, sql: SqlSession, script, step, counts) -> bool:
        """COMMIT; a first-committer-wins loser re-runs the whole txn alone."""
        for attempt in range(1 + CLIENT_RETRIES):
            counts["fe.commit_attempts"] += 1
            try:
                if attempt:
                    counts["fe.client_retries"] += 1
                    step(index, sql, "BEGIN")
                    for text in script:
                        step(index, sql, text)
                step(index, sql, "COMMIT")
                return True
            except WriteConflictError:
                counts["fe.commit_aborts"] += 1
                if sql.session.in_transaction:
                    sql.execute("ROLLBACK")
        return False

    # -- crash and restart -------------------------------------------------------

    @staticmethod
    def _crash(state: AcctState, site: str, key: int) -> None:
        """Kill the process at ``site`` inside one more transaction's COMMIT."""
        victim = SqlSession(state.dw.session())
        victim.execute("BEGIN")
        for text in _transaction(state, key)[:2]:
            victim.execute(text)
        state.in_doubt = TXN_DELTA
        with ChaosController(seed=0).arm(site):
            try:
                victim.execute("COMMIT")
            except SimulatedCrash:
                return
        raise AssertionError(f"crashpoint {site} never fired")

    def probe(self, state: AcctState) -> bool:
        """Cold totals on a new session: every acked commit is visible and
        the in-doubt transaction is all-or-nothing."""
        totals = SqlSession(state.dw.session()).execute(TOTALS_SQL)
        observed = (int(totals["n"][0]), float(totals["s"][0]))
        without = (state.rows, state.balance)
        with_in_doubt = (
            state.rows + state.in_doubt[0],
            state.balance + state.in_doubt[1],
        )
        if observed == with_in_doubt and state.in_doubt != (0, 0.0):
            state.user_bytes += (ROWS_PER_INSERT + 1) * ROW_BYTES
        state.in_doubt = (0, 0.0)
        if observed not in (without, with_in_doubt):
            return False
        state.rows, state.balance = observed
        return True
