"""Reading page files, with projection, zone-map pruning and DV merging."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import FileFormatError
from repro.pagefile.cache import ChunkCache
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.encoding import (
    cache_entry,
    concat,
    decode_column,
    inflate,
    select,
)
from repro.pagefile.file_format import PageFile, checked_footer, read_footer
from repro.pagefile.schema import NUMPY_DTYPES
from repro.pagefile.stats import may_contain


class PageFileReader:
    """Reads columns out of one page file's bytes.

    ``prune`` predicates are ``(column, op, literal)`` triples checked
    against row-group zone maps; a row group is skipped only when the
    statistics prove no row can match.

    With a ``cache`` the inflated payload of each chunk (a ``DEC`` one as
    the ``RAW`` payload of its values) is kept under ``(source, etag,
    chunk offset)`` — the identity of the immutable blob ``data`` came
    from — and the parsed footer under ``(source, etag, footer offset)``;
    a later reader of the same blob skips inflating (and dividing) those
    chunks and ``_parse_footer`` for the footer.  It still checks the
    magic, the trailer and the footer crc32 of ``data`` on every open,
    and arrays are decoded afresh either way.

    A string column whose chunks are all ``DICT``-encoded comes back as a
    hinted :class:`~repro.pagefile.encoding.DictArray` (the deletion-vector
    mask and the row-group concatenation go through ``select`` / ``concat``
    and keep the hint); any ``PLAIN`` chunk makes it a plain object array.
    """

    def __init__(
        self,
        data: bytes,
        source: Optional[str] = None,
        cache: Optional[ChunkCache] = None,
        etag: int = 0,
    ) -> None:
        self._data = data
        self._cache = cache if source else None
        self._blob = (source, etag)
        self._meta = self._footer(source)

    def _footer(self, source: Optional[str]) -> PageFile:
        """The parsed footer: from the cache when it holds one parsed
        from these very footer bytes, else from ``read_footer``."""
        cache = self._cache
        if cache is None:
            return read_footer(self._data, source=source)
        footer, start = checked_footer(self._data, f"{source}: ")
        key = (*self._blob, start)
        meta = cache.get_footer(key, footer)
        if meta is None:
            meta = read_footer(self._data, source=source)
            cache.put(key, meta)
        return meta

    @property
    def meta(self) -> PageFile:
        """The parsed footer."""
        return self._meta

    @property
    def num_rows(self) -> int:
        """Physical row count (before deletion-vector filtering)."""
        return self._meta.num_rows

    def read(
        self,
        columns: Optional[List[str]] = None,
        prune: Optional[List[Tuple[str, str, Any]]] = None,
        deletion_vector: Optional[DeletionVector] = None,
        with_positions: bool = False,
    ) -> Dict[str, np.ndarray]:
        """Materialize the requested columns.

        Rows marked deleted in ``deletion_vector`` are filtered out
        (merge-on-read).  With ``with_positions`` the result additionally
        carries a ``__pos__`` column of physical row positions, which the
        delete/update path uses to build new deletion vectors.  A column
        listed twice is read once, at its first position.
        """
        meta = self._meta
        wanted = list(dict.fromkeys(columns if columns is not None else meta.names))
        picked = [(name, meta.position(name)) for name in wanted]
        types = meta.types
        parts: Dict[str, List[np.ndarray]] = {name: [] for name in wanted}
        position_parts: List[np.ndarray] = []
        row_start = 0
        for group, skip in enumerate(self._skipped(prune)):
            group_rows = meta.group_rows[group]
            if skip:
                row_start += group_rows
                continue
            keep = self._keep_mask(deletion_vector, row_start, group_rows)
            if keep is not None and not keep.any():
                row_start += group_rows
                continue
            first = group * len(types)
            for name, position in picked:
                values = self._chunk(
                    name, types[position], first + position, group_rows
                )
                if keep is not None:
                    values = select(values, keep)
                parts[name].append(values)
            if with_positions:
                positions = np.arange(row_start, row_start + group_rows, dtype=np.int64)
                position_parts.append(positions[keep] if keep is not None else positions)
            row_start += group_rows
        result = {
            name: _concat(NUMPY_DTYPES[types[position]], parts[name])
            for name, position in picked
        }
        if with_positions:
            result["__pos__"] = _concat(np.dtype(np.int64), position_parts)
        return result

    def prune_counts(
        self, prune: Optional[List[Tuple[str, str, Any]]]
    ) -> Tuple[int, int]:
        """``(scanned, pruned)`` row-group counts for a prune predicate.

        Used by EXPLAIN ANALYZE to report zone-map effectiveness without
        altering the read itself.
        """
        pruned = sum(self._skipped(prune))
        return len(self._meta.group_rows) - pruned, pruned

    def live_row_count(self, deletion_vector: Optional[DeletionVector]) -> int:
        """Row count after subtracting deleted rows."""
        if deletion_vector is None:
            return self._meta.num_rows
        return self._meta.num_rows - deletion_vector.cardinality

    def _chunk(self, column: str, type_: str, chunk: int, rows: int) -> np.ndarray:
        """Decode chunk number ``chunk`` (``rows`` values of ``column``),
        inflating it unless the cache has it.  A miss decodes once and
        caches :func:`~repro.pagefile.encoding.cache_entry` of the result."""
        meta, cache = self._meta, self._cache
        offset = meta.offsets[chunk]
        key = (*self._blob, offset)
        try:
            raw = cache.get(key) if cache is not None else None
            if raw is not None:
                return decode_column(type_, raw, rows)
            raw = inflate(self._data[offset : offset + meta.lengths[chunk]])
            values = decode_column(type_, raw, rows)
            if cache is not None:
                cache.put(key, cache_entry(raw, values))
            return values
        except FileFormatError as exc:
            raise FileFormatError(f"{meta.origin}column {column!r}: {exc}") from None

    def _skipped(self, prune: Optional[List[Tuple[str, str, Any]]]) -> List[bool]:
        """Per row group: whether its zone maps prove no row can match."""
        skipped = [False] * len(self._meta.group_rows)
        for column, op, literal in prune or ():
            if column not in self._meta.positions:
                continue
            for group, (lo, hi) in enumerate(self._meta.zone_map(column)):
                if not may_contain(lo, hi, op, literal):
                    skipped[group] = True
        return skipped

    @staticmethod
    def _keep_mask(
        deletion_vector: Optional[DeletionVector], row_start: int, group_rows: int
    ) -> Optional[np.ndarray]:
        if deletion_vector is None or deletion_vector.cardinality == 0:
            return None
        deleted = deletion_vector.positions_in_range(row_start, row_start + group_rows)
        if len(deleted) == 0:
            return None
        mask = np.ones(group_rows, dtype=bool)
        mask[deleted - row_start] = False
        return mask


def _concat(dtype: np.dtype, chunks: List[np.ndarray]) -> np.ndarray:
    """One column of a read from its row groups' chunks (a string column
    stays dictionary-hinted when every chunk was ``DICT``)."""
    if not chunks:
        return np.empty(0, dtype=dtype)
    return concat(chunks)
