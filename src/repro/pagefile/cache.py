"""The BE-side cache of decompressed column chunks and parsed footers.

Data files are immutable, so the payload a chunk of ``(path, etag)``
inflates to never changes, and neither does the
:class:`~repro.pagefile.file_format.PageFile` its footer parses to; this
cache remembers both, LRU under one byte budget.  **A hit skips
inflating, and for a ``DEC`` chunk the division, and nothing else** —
the zlib inflate and the ``DEC`` decode for a chunk, ``_parse_footer``
for a footer: callers consult it only after ``store.get`` and both
checksum verifications have passed on the blob in hand, and a footer is
served only once the magic, the trailer and the footer crc32 of those
bytes have been checked and the footer bytes equal the ones it was parsed
from.  So latency charges, metered bytes, fault injection, quarantine and
GC behave the same warm, cold or with a zero budget, and no invalidation
hook exists.

It holds the *encoded* chunk payloads (flat ``bytes``), not decoded
arrays: they are less than half the size (dictionary codes, narrowed
ints), free in one step when recovery drops them, and every read still
materialises fresh arrays, so no engine batch aliases cache state.  The
one exception is ``DEC``: a miss decodes it once and the cache keeps the
``RAW`` payload of the decoded values
(:func:`~repro.pagefile.encoding.cache_entry`), the entry a ``RAW``
chunk of those values would have left, at the same cost: decoding
``DEC`` on every hit would cost about 6x the copy a ``RAW`` hit makes
(65 536 values: 116 µs against 18 µs on a 2-core container).  A
footer entry is the immutable ``PageFile`` itself (flat tuples), charged
its :attr:`~repro.pagefile.file_format.PageFile.nbytes`.  The cache is
process memory — one per :class:`~repro.fe.context.ServiceContext`,
never module-level, because etags are a per-store counter and two
warehouses with the same seed generate the same paths.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.pagefile.file_format import PageFile

if TYPE_CHECKING:
    from repro.telemetry.metrics import MetricsRegistry

#: Total cost (entry sizes + per-entry overhead) one cache may hold.
BUDGET_BYTES = 8 << 20
#: Charged per entry on top of its size, so a workload of tiny files
#: cannot hold tens of thousands of entries under the byte budget.
ENTRY_OVERHEAD_BYTES = 1 << 10

#: ``(blob path, blob etag, byte offset in the file)``: of a chunk, or of
#: the footer (every chunk starts before it, so the two never collide).
ChunkKey = Tuple[str, int, int]

Entry = Union[bytes, PageFile]


def entry_cost(entry: Entry) -> int:
    """What ``entry`` is charged: its size plus the per-entry overhead."""
    size = len(entry) if isinstance(entry, bytes) else entry.nbytes
    return size + ENTRY_OVERHEAD_BYTES


class ChunkCache:
    """LRU map of key -> inflated (still encoded, ``DEC`` as ``RAW``)
    chunk bytes, or -> the parsed footer of the blob.

    Hits, misses, evictions and the resident cost are counted only in
    ``metrics``, as the ``pagefile.chunk_cache.*`` instruments; chunk and
    footer lookups count alike.
    """

    def __init__(
        self, metrics: "MetricsRegistry", budget_bytes: int = BUDGET_BYTES
    ) -> None:
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[ChunkKey, Entry]" = OrderedDict()
        #: Cost currently held: entry sizes plus the per-entry overhead.
        self.resident_bytes = 0
        # Bound once: a get is per chunk, so no registry lookup on it.
        self.hits = metrics.counter("pagefile.chunk_cache.hits")
        self.misses = metrics.counter("pagefile.chunk_cache.misses")
        self.evictions = metrics.counter("pagefile.chunk_cache.evictions")
        self._resident = metrics.gauge("pagefile.chunk_cache.resident_bytes")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ChunkKey) -> Optional[bytes]:
        """The cached payload of chunk ``key`` (now most recently used), or None."""
        raw = self._entries.get(key)
        if raw is None:
            self.misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits.inc()
        return raw

    def get_footer(self, key: ChunkKey, footer: bytes) -> Optional[PageFile]:
        """The footer cached under ``key`` if it was parsed from exactly
        the bytes ``footer`` (now most recently used), or None."""
        meta = self._entries.get(key)
        if meta is None or meta.footer != footer:
            self.misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits.inc()
        return meta

    def put(self, key: ChunkKey, entry: Entry) -> None:
        """Remember a chunk payload or a parsed footer, evicting least
        recently used entries to fit.

        An entry that alone exceeds the budget is not kept.
        """
        cost = entry_cost(entry)
        if cost > self.budget_bytes or key in self._entries:
            return
        evicted = 0
        while self.resident_bytes + cost > self.budget_bytes:
            __, old = self._entries.popitem(last=False)
            self.resident_bytes -= entry_cost(old)
            evicted += 1
        self._entries[key] = entry
        self.resident_bytes += cost
        self.evictions.inc(evicted)
        self._resident.set(self.resident_bytes)

    def clear(self) -> None:
        """Drop every entry (process restart: the cache is process memory)."""
        self._entries.clear()
        self.resident_bytes = 0
        self._resident.set(0)
