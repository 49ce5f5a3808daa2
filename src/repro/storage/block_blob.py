"""A per-writer handle over one block blob.

Each SQL BE task writing a transaction manifest gets a
:class:`BlockBlobClient`: it stages blocks with ids drawn from the
transaction's names (:class:`~repro.common.ids.TransactionNames`) and
reports those ids back to the DCP (Section 3.2.2).  The ids are aggregated
by the DCP and finally committed by the SQL FE.  A restarted task simply
creates a new client — the blocks of the failed attempt stay staged and are
discarded at commit because nobody reports their ids.
"""

from __future__ import annotations

from typing import List

from repro.common.ids import TransactionNames
from repro.storage.object_store import ObjectStore


class BlockBlobClient:
    """Stages blocks against one blob path and remembers the ids it wrote."""

    def __init__(self, store: ObjectStore, path: str, names: TransactionNames) -> None:
        self._store = store
        self._path = path
        self._names = names
        self._written_ids: List[str] = []

    @property
    def path(self) -> str:
        """The blob path this client writes to."""
        return self._path

    def write_block(self, data: bytes) -> str:
        """Stage one block; returns its freshly generated block id."""
        block_id = self._names.next()
        self._store.stage_block(self._path, block_id, data)
        self._written_ids.append(block_id)
        return block_id

    @property
    def written_block_ids(self) -> List[str]:
        """All block ids this client staged, in write order."""
        return list(self._written_ids)
