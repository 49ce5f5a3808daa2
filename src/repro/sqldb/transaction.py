"""Catalog transactions: read rules, write buffering, validation.

Isolation levels (Section 4.4.2):

* **SNAPSHOT** — all reads as of the transaction's begin sequence, plus its
  own writes; first-committer-wins write-write validation at commit.
* **RCSI** — each read sees the newest committed data at the time of the
  read (statement-level snapshot), plus its own writes; same write-write
  validation.
* **SERIALIZABLE** — snapshot reads plus commit-time validation of the read
  set: if anything the transaction read (including the tables it scanned,
  which covers phantoms) changed since it began, the commit fails with
  :class:`~repro.common.errors.SerializationError`.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.common.errors import (
    SerializationError,
    TransactionStateError,
    WriteConflictError,
)
from repro.sqldb.mvcc import TOMBSTONE, Key, VersionedStore


class IsolationLevel(enum.Enum):
    """Supported catalog-transaction isolation levels."""

    SNAPSHOT = "snapshot"
    RCSI = "rcsi"
    SERIALIZABLE = "serializable"


class TxnState(enum.Enum):
    """Lifecycle states of a catalog transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class SqlDbTransaction:
    """One catalog transaction.  Created via ``SqlDbEngine.begin``."""

    def __init__(
        self,
        engine: "SqlDbEngine",
        txid: int,
        begin_seq: int,
        begin_ts: float,
        isolation: IsolationLevel,
    ) -> None:
        self._engine = engine
        self.txid = txid
        self.begin_seq = begin_seq
        self.begin_ts = begin_ts
        self.isolation = isolation
        self.state = TxnState.ACTIVE
        self.commit_seq: Optional[int] = None
        self._writes: Dict[Key, Any] = {}
        self._read_keys: Set[Key] = set()
        self._read_tables: Set[str] = set()
        self._pre_install_hook: Optional[Callable[[int], None]] = None

    # -- reads ----------------------------------------------------------------

    def get(self, table: str, pk: Tuple[Any, ...]) -> Optional[Dict[str, Any]]:
        """Read one row by primary key (own writes win); None if absent."""
        self._require_active()
        key: Key = (table, pk)
        if key in self._writes:
            value = self._writes[key]
            return None if value is TOMBSTONE else dict(value)
        self._read_keys.add(key)
        version = self._engine.store.visible(key, self._read_seq())
        if version is None or version.is_tombstone:
            return None
        return dict(version.value)

    def scan(
        self,
        table: str,
        predicate: Optional[Callable[[Dict[str, Any]], bool]] = None,
        prefix: Tuple[Any, ...] = (),
    ) -> Iterator[Dict[str, Any]]:
        """Iterate visible rows of ``table`` (own writes overlaid).

        With ``prefix`` only rows whose primary key starts with it are
        visited — a bisected key range, not a filter over every row.  The
        read still covers the whole table for serializable validation.
        """
        self._require_active()
        self._read_tables.add(table)
        read_seq = self._read_seq()
        seen: Set[Key] = set()
        store = self._engine.store
        keys = (
            store.keys_with_prefix(table, prefix)
            if prefix
            else store.keys_of_table(table)
        )
        width = len(prefix)
        for key in keys:
            seen.add(key)
            if key in self._writes:
                value = self._writes[key]
            else:
                version = store.visible(key, read_seq)
                value = version.value if version is not None else TOMBSTONE
            if value is TOMBSTONE:
                continue
            row = dict(value)
            if predicate is None or predicate(row):
                yield row
        for key, value in sorted(self._writes.items()):
            if key[0] != table or key in seen or value is TOMBSTONE:
                continue
            if key[1][:width] != prefix:
                continue
            row = dict(value)
            if predicate is None or predicate(row):
                yield row

    # -- writes ---------------------------------------------------------------

    def put(self, table: str, pk: Tuple[Any, ...], row: Dict[str, Any]) -> None:
        """Insert or replace a row (buffered until commit)."""
        self._require_active()
        self._writes[(table, pk)] = dict(row)

    def upsert(
        self,
        table: str,
        pk: Tuple[Any, ...],
        update: Callable[[Optional[Dict[str, Any]]], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Read-modify-write a row; ``update`` maps old row (or None) → new.

        This is the operation the FE issues against ``WriteSets``: reading
        the existing counter and writing it back makes the row part of the
        write set, which is what triggers first-committer-wins conflicts.
        """
        current = self.get(table, pk)
        new_row = update(current)
        self.put(table, pk, new_row)
        return new_row

    def delete(self, table: str, pk: Tuple[Any, ...]) -> None:
        """Delete a row (buffered tombstone)."""
        self._require_active()
        self._writes[(table, pk)] = TOMBSTONE

    @property
    def write_keys(self) -> List[Key]:
        """Keys this transaction will write at commit."""
        return sorted(self._writes)

    @property
    def is_read_only(self) -> bool:
        """Whether the transaction buffered no writes."""
        return not self._writes and self._pre_install_hook is None

    def set_pre_install_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callback run under the commit lock, after validation.

        The hook receives the freshly assigned commit sequence id and may
        issue further :meth:`put` calls keyed by it.  This stands in for
        SQL Server internals that let the ``Manifests`` rows carry the
        transaction's own logical commit order (the ``Sequence Id`` column
        of Figure 4): the sequence is only known once the commit lock is
        held, so the rows are materialized at that point.  Hook writes
        bypass conflict validation — they must target fresh keys (which
        sequence-keyed rows are by construction).
        """
        self._pre_install_hook = hook

    # -- lifecycle --------------------------------------------------------------

    def commit(self) -> Optional[int]:
        """Validate and commit; returns the commit sequence (None if read-only).

        Raises :class:`WriteConflictError` or :class:`SerializationError`
        on validation failure — the transaction is then aborted and all its
        buffered writes discarded.
        """
        self._require_active()
        try:
            commit_seq = self._engine.commit_transaction(self)
        except (WriteConflictError, SerializationError):
            self.state = TxnState.ABORTED
            self._engine.forget(self)
            raise
        self.state = TxnState.COMMITTED
        self.commit_seq = commit_seq
        self._engine.forget(self)
        return commit_seq

    def abort(self) -> None:
        """Roll back: discard buffered writes.  Idempotent on aborted txns."""
        if self.state is TxnState.COMMITTED:
            raise TransactionStateError(f"txn {self.txid} already committed")
        self.state = TxnState.ABORTED
        self._writes.clear()
        self._engine.forget(self)

    # -- validation (called by the engine under the commit lock) ---------------

    def validate(self, store: VersionedStore) -> None:
        """First-committer-wins plus serializable read-set checks."""
        for key in self._writes:
            if store.changed_since(key, self.begin_seq):
                raise WriteConflictError(
                    f"txn {self.txid}: write-write conflict on {key}"
                )
        if self.isolation is IsolationLevel.SERIALIZABLE:
            for key in self._read_keys:
                if store.changed_since(key, self.begin_seq):
                    raise SerializationError(
                        f"txn {self.txid}: read key {key} changed since begin"
                    )
            for table in self._read_tables:
                if store.table_changed_since(table, self.begin_seq):
                    raise SerializationError(
                        f"txn {self.txid}: table {table!r} changed since begin"
                    )

    def buffered_writes(self) -> Dict[Key, Any]:
        """The write buffer (engine-internal, used during install)."""
        return self._writes

    # -- internals ----------------------------------------------------------------

    def _read_seq(self) -> int:
        if self.isolation is IsolationLevel.RCSI:
            return self._engine.last_commit_seq
        return self.begin_seq

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"txn {self.txid} is {self.state.value}, not active"
            )
