"""The catalog engine: commit lock, global sequence, active-txn registry.

The commit protocol (Section 4.1.2, steps 2–4) serializes validation and
install under a single *commit lock*, which also defines the logical commit
order — the ``Sequence Id`` recorded in the ``Manifests`` table.  The
engine tracks active transactions and their begin timestamps because the
garbage collector needs the minimum begin timestamp of all currently
executing transactions (Section 5.3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chaos.crashpoints import crashpoint
from repro.common.clock import SimulatedClock
from repro.common.errors import TransactionStateError
from repro.common.ids import MonotonicSequence
from repro.sqldb.locks import CommitLock
from repro.sqldb.mvcc import TOMBSTONE, VersionedStore
from repro.sqldb.transaction import IsolationLevel, SqlDbTransaction, TxnState


class SqlDbEngine:
    """An embedded multi-version catalog database."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self.store = VersionedStore()
        self._txid_seq = MonotonicSequence(start=100_000)
        self._commit_seq = MonotonicSequence(start=1)
        self._commit_lock = CommitLock(clock=self.clock)
        self._active: Dict[int, SqlDbTransaction] = {}
        self._committed_count = 0
        self._aborted_count = 0

    # -- transaction lifecycle ------------------------------------------------

    def begin(
        self, isolation: IsolationLevel = IsolationLevel.SNAPSHOT
    ) -> SqlDbTransaction:
        """Start a transaction whose snapshot is the current commit sequence."""
        txn = SqlDbTransaction(
            engine=self,
            txid=self._txid_seq.next(),
            begin_seq=self.last_commit_seq,
            begin_ts=self.clock.now,
            isolation=isolation,
        )
        self._active[txn.txid] = txn
        return txn

    def commit_transaction(self, txn: SqlDbTransaction) -> Optional[int]:
        """Validate and install a transaction's writes (engine-internal).

        Read-only transactions commit without consuming a sequence id.
        """
        if txn.txid not in self._active:
            raise TransactionStateError(f"txn {txn.txid} is not active")
        if txn.is_read_only:
            self._committed_count += 1
            return None
        with self._commit_lock.held(txn.txid):
            txn.validate(self.store)
            crashpoint("sqldb.commit.after_validate")
            commit_seq = self._commit_seq.next()
            if txn._pre_install_hook is not None:
                txn._pre_install_hook(commit_seq)
            for key, value in sorted(txn.buffered_writes().items()):
                stored = value if value is TOMBSTONE else dict(value)
                self.store.install(key, commit_seq, stored, txn.txid)
        crashpoint("sqldb.commit.after_install")
        self._committed_count += 1
        return commit_seq

    def recover_in_doubt(self) -> Dict[str, int]:
        """Resolve every transaction left active by a crashed process.

        The durability rule mirrors a real SQL DB restart: a transaction
        whose writes reached the version store (its install loop ran under
        the commit lock) is *committed* — its effects are already visible
        to every reader — so recovery only finishes the bookkeeping.  A
        transaction with no installed writes never got past validation and
        is aborted, discarding its buffered writes.  Returns counts per
        outcome.
        """
        outcome = {"committed": 0, "aborted": 0}
        for txn in list(self._active.values()):
            installed_seq = self.store.last_installed_seq_of(txn.txid)
            if installed_seq is not None:
                txn.state = TxnState.COMMITTED
                txn.commit_seq = installed_seq
                txn.buffered_writes().clear()
                self._active.pop(txn.txid, None)
                self._committed_count += 1
                outcome["committed"] += 1
            else:
                txn.abort()
                outcome["aborted"] += 1
        return outcome

    def forget(self, txn: SqlDbTransaction) -> None:
        """Remove a finished transaction from the active registry."""
        if self._active.pop(txn.txid, None) is not None and txn.state.value == "aborted":
            self._aborted_count += 1

    # -- observers --------------------------------------------------------------

    @property
    def commit_lock(self) -> CommitLock:
        """The commit lock (exposed for instrumentation and DMVs)."""
        return self._commit_lock

    @property
    def last_commit_seq(self) -> int:
        """Sequence id of the most recent commit (0 if none yet)."""
        return self._commit_seq.last

    def advance_commit_seq_past(self, sequence_id: int) -> None:
        """Fast-forward the commit sequence beyond ``sequence_id``.

        Used by restore: a rebuilt catalog carries historical sequence ids,
        and new commits must continue strictly above them.
        """
        while self._commit_seq.last <= sequence_id:
            self._commit_seq.next()

    @property
    def active_transactions(self) -> List[SqlDbTransaction]:
        """Currently executing transactions."""
        return list(self._active.values())

    def min_active_begin_ts(self) -> Optional[float]:
        """Minimum begin timestamp over active transactions (None if idle).

        The GC's orphan rule: a file stamped before this instant cannot
        belong to any in-flight transaction.
        """
        if not self._active:
            return None
        return min(txn.begin_ts for txn in self._active.values())

    @property
    def stats(self) -> Dict[str, int]:
        """Commit/abort counters."""
        return {
            "committed": self._committed_count,
            "aborted": self._aborted_count,
            "active": len(self._active),
        }

    # -- snapshot export (backup / restore, Section 6.3) -------------------------

    def dump_table(self, table: str, as_of_seq: Optional[int] = None) -> List[Dict[str, Any]]:
        """All visible rows of a system table as of a sequence (default: now)."""
        seq = as_of_seq if as_of_seq is not None else self.last_commit_seq
        rows = []
        for key in self.store.keys_of_table(table):
            version = self.store.visible(key, seq)
            if version is not None and not version.is_tombstone:
                rows.append(dict(version.value))
        return rows
