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
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.common.errors import (
    SerializationError,
    TransactionStateError,
    WriteConflictError,
)
from repro.sqldb.mvcc import TOMBSTONE, Key, Version, VersionedStore, range_bounds


class IsolationLevel(enum.Enum):
    """Supported catalog-transaction isolation levels."""

    SNAPSHOT = "snapshot"
    RCSI = "rcsi"
    SERIALIZABLE = "serializable"


class VisibleRow(NamedTuple):
    """One row a range read saw, with where it came from."""

    row: Dict[str, Any]
    #: The committed version the row was read from; None when it is the
    #: transaction's own buffered write.  A version is immutable, so it
    #: identifies one catalog state of its key.
    version: Optional[Version]


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
        keys = store.key_range(table, prefix)
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

    def newest_first(
        self,
        table: str,
        prefix: Tuple[Any, ...],
        after: Any = None,
        upto: Any = None,
    ) -> Iterator[VisibleRow]:
        """Visible rows of one bounded key range, newest key first.

        The range is :meth:`VersionedStore.key_range`'s: primary keys
        starting with ``prefix`` whose next component lies in ``(after,
        upto]``.  The walk starts at the range's end and overlays the
        transaction's own writes, so the newest visible row costs a seek,
        not a scan of the table's history.  Like :meth:`scan` it records
        the whole table for serializable validation.
        """
        self._require_active()
        self._read_tables.add(table)
        read_seq = self._read_seq()
        store = self._engine.store
        keys = store.key_range(table, prefix, after, upto)
        own = sorted(key for key in self._writes if key[0] == table)
        start, end = range_bounds(own, prefix, after, upto)
        own = own[start:end]
        while keys or own:
            if own and (not keys or own[-1] >= keys[-1]):
                key = own.pop()
                if keys and keys[-1] == key:
                    keys.pop()
                value, version = self._writes[key], None
            else:
                key = keys.pop()
                version = store.visible(key, read_seq)
                value = TOMBSTONE if version is None else version.value
            if value is not TOMBSTONE:
                yield VisibleRow(dict(value), version)

    def newest(
        self,
        table: str,
        prefix: Tuple[Any, ...],
        after: Any = None,
        upto: Any = None,
    ) -> Optional[VisibleRow]:
        """The newest visible row of a bounded key range (see
        :meth:`newest_first`), or None when the range shows no row."""
        return next(self.newest_first(table, prefix, after, upto), None)

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
        sequence-keyed rows are by construction).  The engine runs it once
        and drops it; an abort drops it too.
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
            self._pre_install_hook = None
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
        self._pre_install_hook = None
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
