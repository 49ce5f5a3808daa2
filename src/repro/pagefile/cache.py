"""The BE-side cache of decompressed column chunks.

Data files are immutable, so the bytes ``zlib.decompress`` returns for a
chunk of ``(path, etag)`` never change; this cache remembers them, LRU
under one byte budget.  **A hit skips ``zlib.decompress`` and nothing
else**: callers consult it only after ``store.get`` and both checksum
verifications have passed on the blob in hand, so latency charges,
metered bytes, fault injection, quarantine and GC behave the same warm,
cold or with a zero budget, and no invalidation hook exists.

It holds the *encoded* payloads (flat ``bytes``), not decoded arrays:
they are less than half the size (dictionary codes, narrowed ints), free
in one step when recovery drops them, and every read still materialises
fresh arrays, so no engine batch aliases cache state.  The cache is
process memory — one per :class:`~repro.fe.context.ServiceContext`,
never module-level, because etags are a per-store counter and two
warehouses with the same seed generate the same paths.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.telemetry.metrics import MetricsRegistry

#: Total cost (payload bytes + per-entry overhead) one cache may hold.
BUDGET_BYTES = 8 << 20
#: Charged per entry on top of its payload, so a workload of tiny files
#: cannot hold tens of thousands of entries under the byte budget.
ENTRY_OVERHEAD_BYTES = 1 << 10

#: ``(blob path, blob etag, chunk offset in the file)``.
ChunkKey = Tuple[str, int, int]


@dataclass
class ChunkCacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Cost currently held: payload bytes plus the per-entry overhead.
    resident_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_bytes": self.resident_bytes,
        }


class ChunkCache:
    """LRU map of chunk key -> decompressed (still encoded) chunk bytes."""

    def __init__(
        self,
        budget_bytes: int = BUDGET_BYTES,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[ChunkKey, bytes]" = OrderedDict()
        self.stats = ChunkCacheStats()
        #: The stats mirrored as ``pagefile.chunk_cache.*`` instruments,
        #: bound once (a get is per chunk: no registry lookup on it).
        self._metered = metrics is not None
        if metrics is not None:
            self._hits = metrics.counter("pagefile.chunk_cache.hits")
            self._misses = metrics.counter("pagefile.chunk_cache.misses")
            self._evictions = metrics.counter("pagefile.chunk_cache.evictions")
            self._resident = metrics.gauge("pagefile.chunk_cache.resident_bytes")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ChunkKey) -> Optional[bytes]:
        """The cached payload of ``key`` (now most recently used), or None."""
        raw = self._entries.get(key)
        if raw is None:
            self.stats.misses += 1
            if self._metered:
                self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if self._metered:
            self._hits.inc()
        return raw

    def put(self, key: ChunkKey, raw: bytes) -> None:
        """Remember ``raw``, evicting least recently used entries to fit.

        An entry that alone exceeds the budget is not kept.
        """
        cost = len(raw) + ENTRY_OVERHEAD_BYTES
        if cost > self.budget_bytes or key in self._entries:
            return
        stats = self.stats
        evicted = 0
        while stats.resident_bytes + cost > self.budget_bytes:
            __, old = self._entries.popitem(last=False)
            stats.resident_bytes -= len(old) + ENTRY_OVERHEAD_BYTES
            evicted += 1
        self._entries[key] = raw
        stats.resident_bytes += cost
        stats.evictions += evicted
        if self._metered:
            self._evictions.inc(evicted)
            self._resident.set(stats.resident_bytes)

    def clear(self) -> None:
        """Drop every entry (process restart: the cache is process memory)."""
        self._entries.clear()
        self.stats.resident_bytes = 0
        if self._metered:
            self._resident.set(0)
