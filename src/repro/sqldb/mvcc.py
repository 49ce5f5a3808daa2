"""Version chains and visibility rules.

Every key maps to a chain of versions ordered by the global commit
sequence.  A reader at sequence ``s`` sees the newest version with
``commit_seq <= s``.  Deletes install a tombstone version, so visibility is
uniform for inserts, updates and deletes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Sentinel value for deleted rows.  Distinct from None so callers can store
#: None-valued payloads if they wish.
TOMBSTONE = object()

#: A row key: (table name, primary-key tuple).
Key = Tuple[str, Tuple[Any, ...]]


@dataclass(frozen=True)
class Version:
    """One committed version of a key."""

    commit_seq: int
    value: Any
    #: Transaction id of the writer (kept for diagnostics / GC).
    txid: int

    @property
    def is_tombstone(self) -> bool:
        """Whether this version records a delete."""
        return self.value is TOMBSTONE


class VersionedStore:
    """The multi-version heap shared by all transactions of one engine."""

    def __init__(self) -> None:
        self._chains: Dict[Key, List[Version]] = {}
        #: Table name -> its keys in key order; a key is inserted when its
        #: chain is created, so a scan neither walks other tables nor sorts.
        self._table_keys: Dict[str, List[Key]] = {}
        #: Table name -> commit sequence of its newest installed version.
        self._last_install: Dict[str, int] = {}

    def install(self, key: Key, commit_seq: int, value: Any, txid: int) -> None:
        """Append a committed version (commit sequences arrive in order)."""
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = []
            insort(self._table_keys.setdefault(key[0], []), key)
        if chain and chain[-1].commit_seq >= commit_seq:
            raise AssertionError(
                f"out-of-order install at {key}: {commit_seq} after "
                f"{chain[-1].commit_seq}"
            )
        chain.append(Version(commit_seq=commit_seq, value=value, txid=txid))
        self._last_install[key[0]] = commit_seq

    def visible(self, key: Key, as_of_seq: int) -> Optional[Version]:
        """Newest version of ``key`` with ``commit_seq <= as_of_seq``.

        Returns None when the key did not exist at that sequence.  A
        returned tombstone version means "existed then deleted".
        """
        chain = self._chains.get(key)
        if not chain:
            return None
        # Chains are short (catalog rows change rarely); linear scan from the
        # tail is faster than bisect for the common "latest" case.
        for version in reversed(chain):
            if version.commit_seq <= as_of_seq:
                return version
        return None

    def latest(self, key: Key) -> Optional[Version]:
        """The newest committed version regardless of sequence."""
        chain = self._chains.get(key)
        return chain[-1] if chain else None

    def changed_since(self, key: Key, seq: int) -> bool:
        """Whether any version of ``key`` committed after sequence ``seq``."""
        chain = self._chains.get(key)
        return bool(chain) and chain[-1].commit_seq > seq

    def last_installed_seq_of(self, txid: int) -> Optional[int]:
        """Newest commit sequence installed by transaction ``txid``.

        Returns None when the transaction installed nothing.  Restart
        recovery uses this to resolve in-doubt transactions: a transaction
        that crashed after its install loop is durably committed even
        though the engine never finished its bookkeeping.
        """
        best: Optional[int] = None
        for chain in self._chains.values():
            for version in chain:
                if version.txid == txid and (
                    best is None or version.commit_seq > best
                ):
                    best = version.commit_seq
        return best

    def keys_of_table(self, table: str) -> List[Key]:
        """All keys ever written for ``table`` (any visibility), in key
        order — a snapshot, so a suspended scan is not disturbed by a
        commit that installs a new key."""
        return list(self._table_keys.get(table, ()))

    def keys_with_prefix(self, table: str, prefix: Tuple[Any, ...]) -> List[Key]:
        """The keys of ``table`` whose primary key starts with ``prefix``,
        in key order — :meth:`keys_of_table` bisected to that range."""
        keys = self._table_keys.get(table, [])
        width = len(prefix)
        start = bisect_left(keys, (table, prefix))
        end = bisect_right(keys, prefix, lo=start, key=lambda key: key[1][:width])
        return keys[start:end]

    def last_install_seq(self, table: str) -> int:
        """Commit sequence of the newest version installed into ``table``
        (0 if none): it changes exactly when some row of ``table`` does."""
        return self._last_install.get(table, 0)

    def table_changed_since(self, table: str, seq: int) -> bool:
        """Whether any key of ``table`` has a version newer than ``seq``.

        Used for serializable-mode phantom protection at table scope.
        """
        return self.last_install_seq(table) > seq
