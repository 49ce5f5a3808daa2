"""The BE-side snapshot cache (Section 3.2.1).

Each compute node caches reconstructed table snapshots keyed by
``(table_id, sequence_id)``.  The cache is *incremental*: a request for a
newer sequence extends the closest cached ancestor by replaying only the
missing manifests, and a request for an older sequence than anything cached
falls back to checkpoint + tail replay.  Because snapshots are immutable
values, one cache serves concurrent operations pinned to different
sequence ids — exactly the property the paper calls out.

Values that are pure functions of a committed snapshot (its health
statistics, its cells, its zone-map arrays) live in the snapshot's entry
beside it (:meth:`SnapshotCache.derived`): computed on first use, shared
by every later reader of that ``(table_id, sequence_id)``, and dropped
with the entry.  The snapshot object itself is never written to.

An extended snapshot, a checkpoint-based one and a cold full replay at
the same sequence are equal: a snapshot is the live files and DVs only,
a pure function of the manifests up to its sequence.  So when garbage
collection truncates a table's log below some mark, only that table's
entries below the mark can no longer be rebuilt the way they were, and
only those are dropped (:meth:`SnapshotCache.invalidate`).

Losing the cache is always safe: it can be rebuilt from the manifest log.
Hit/miss counters feed the concurrency benchmarks (Figure 12's slowdown is
partly cache misses from advancing snapshots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.lst.actions import Action
from repro.lst.snapshot import TableSnapshot

#: Loader callback: given (table_id, lo_seq_exclusive, hi_seq_inclusive),
#: return the ordered manifest triples (seq, committed_at, actions).
ManifestLoader = Callable[[int, int, int], List[Tuple[int, float, List[Action]]]]
#: Loader callback: given (table_id, max_seq), return the newest checkpoint
#: snapshot with sequence_id <= max_seq, or None to replay from empty.
CheckpointLoader = Callable[[int, int], Optional[TableSnapshot]]

T = TypeVar("T")


class _Entry:
    """One cached snapshot and the values derived from it so far."""

    __slots__ = ("snapshot", "derived")

    def __init__(self, snapshot: TableSnapshot) -> None:
        self.snapshot = snapshot
        self.derived: Dict[str, Any] = {}


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    incremental_extensions: int = 0
    misses: int = 0
    manifests_replayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reporting."""
        return {
            "hits": self.hits,
            "incremental_extensions": self.incremental_extensions,
            "misses": self.misses,
            "manifests_replayed": self.manifests_replayed,
        }


class SnapshotCache:
    """Caches per-table snapshots and extends them incrementally."""

    def __init__(
        self,
        load_manifests: ManifestLoader,
        load_checkpoint: CheckpointLoader,
        max_versions_per_table: int = 8,
    ) -> None:
        #: The manifest loader replay reads through; garbage collection
        #: reads a table's log tail with it too.
        self.load_manifests = load_manifests
        self._load_checkpoint = load_checkpoint
        self._max_versions = max_versions_per_table
        self._entries: Dict[int, Dict[int, _Entry]] = {}
        self.stats = CacheStats()

    def get(self, table_id: int, sequence_id: int) -> TableSnapshot:
        """Return the snapshot of ``table_id`` as of ``sequence_id``."""
        versions = self._entries.setdefault(table_id, {})
        exact = versions.pop(sequence_id, None)
        if exact is not None:
            self.stats.hits += 1
            versions[sequence_id] = exact  # now the most recently used
            return exact.snapshot

        ancestor = self._best_ancestor(versions, sequence_id)
        if ancestor is not None:
            self.stats.incremental_extensions += 1
            snapshot = self._extend(table_id, ancestor, sequence_id)
        else:
            self.stats.misses += 1
            base = self._load_checkpoint(table_id, sequence_id)
            snapshot = self._extend(
                table_id, base if base is not None else TableSnapshot(), sequence_id
            )
        self._remember(versions, snapshot)
        return snapshot

    def derived(
        self,
        table_id: int,
        snapshot: TableSnapshot,
        name: str,
        compute: Callable[[], T],
    ) -> T:
        """``compute()``, a pure function of ``snapshot``, once per cached
        snapshot: the value named ``name`` is kept in the snapshot's entry.

        Only the very snapshot object :meth:`get` returned is served from
        the entry.  Any other snapshot with the same sequence id — a
        transaction's own writes overlaid on an older one, a pruned view —
        is computed afresh every time.
        """
        entry = self._entries.get(table_id, {}).get(snapshot.sequence_id)
        if entry is None or entry.snapshot is not snapshot:
            return compute()
        try:
            return entry.derived[name]
        except KeyError:
            value = entry.derived[name] = compute()
            return value

    def invalidate(
        self, table_id: Optional[int] = None, below: Optional[int] = None
    ) -> None:
        """Drop cached snapshots: all tables (e.g. on node restart), one
        table, or one table's snapshots at sequences below ``below``."""
        if table_id is None:
            self._entries.clear()
        elif below is None:
            self._entries.pop(table_id, None)
        else:
            versions = self._entries.get(table_id, {})
            for seq in [seq for seq in versions if seq < below]:
                del versions[seq]

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _best_ancestor(
        versions: Dict[int, _Entry], sequence_id: int
    ) -> Optional[TableSnapshot]:
        candidates = [seq for seq in versions if seq < sequence_id]
        if not candidates:
            return None
        return versions[max(candidates)].snapshot

    def _extend(
        self, table_id: int, base: TableSnapshot, sequence_id: int
    ) -> TableSnapshot:
        if base.sequence_id >= sequence_id:
            return base
        manifests = self.load_manifests(table_id, base.sequence_id, sequence_id)
        self.stats.manifests_replayed += len(manifests)
        snapshot = base
        for seq, __, actions in manifests:
            snapshot = snapshot.apply_manifest(actions, seq)
        return snapshot

    def _remember(
        self, versions: Dict[int, _Entry], snapshot: TableSnapshot
    ) -> None:
        """Keep ``snapshot`` as the table's most recently used entry and
        evict the least recently used beyond the bound.  Recency, not
        age: garbage collection asks for the state at its horizon, the
        oldest entry, on every pass."""
        entry = versions.pop(snapshot.sequence_id, None)
        if entry is None or entry.snapshot is not snapshot:
            # An extension that found nothing to replay hands back its
            # cached ancestor; keep that entry's derived values.
            entry = _Entry(snapshot)
        versions[snapshot.sequence_id] = entry
        while len(versions) > self._max_versions:
            del versions[next(iter(versions))]
