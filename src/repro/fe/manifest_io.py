"""Physical-metadata IO: manifests and checkpoints between catalog and store.

The ``Manifests`` catalog table holds *names*; the manifest *contents*
live in the object store.  This module bridges the two for the BE snapshot
cache: loading committed manifests for a sequence range and loading the
newest checkpoint at or below a sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import BlobNotFoundError, IntegrityError
from repro.lst.actions import Action
from repro.lst.cache import SnapshotCache
from repro.lst.checkpoint import Checkpoint
from repro.lst.manifest import decode_manifest
from repro.lst.snapshot import TableSnapshot
from repro.sqldb import system_tables as catalog
from repro.storage.retry import with_retries

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.fe.context import ServiceContext


def load_manifest_actions(context: "ServiceContext", path: str) -> List[Action]:
    """Fetch and decode one manifest file from the object store."""
    blob = with_retries(
        lambda: context.store.get(path),
        telemetry=context.telemetry,
        label="manifest_load",
        clock=context.clock,
        seed=context.config.seed,
    )
    return decode_manifest(blob.data)


def make_snapshot_cache(context: "ServiceContext") -> SnapshotCache:
    """Build the BE snapshot cache wired to this deployment's loaders.

    Both loaders read the *latest committed* catalog state: manifest rows
    are append-only per table with monotonically increasing sequence ids,
    so filtering by sequence range reproduces any transaction's SI view.
    """

    def load_manifests(
        table_id: int, lo_exclusive: int, hi_inclusive: int
    ) -> List[Tuple[int, float, List[Action]]]:
        txn = context.sqldb.begin()
        try:
            rows = catalog.manifests_for_table(
                txn, table_id, lo_exclusive, hi_inclusive
            )
        finally:
            txn.abort()
        out = []
        for row in rows:
            out.append(
                (
                    row["sequence_id"],
                    row["committed_at"],
                    load_manifest_actions(context, row["manifest_path"]),
                )
            )
        return out

    def load_checkpoint(table_id: int, max_seq: int) -> Optional[TableSnapshot]:
        txn = context.sqldb.begin()
        try:
            row = catalog.latest_checkpoint(txn, table_id, max_seq)
        finally:
            txn.abort()
        if row is None:
            return None
        try:
            blob = with_retries(
                lambda: context.store.get(row["path"]),
                telemetry=context.telemetry,
                label="checkpoint_load",
                clock=context.clock,
                seed=context.config.seed,
            )
        except (BlobNotFoundError, IntegrityError):
            # Checkpoints are an acceleration, not a source of truth: a
            # missing *or corrupt* checkpoint degrades to manifest replay
            # (detection was already counted by the store); the scrubber
            # quarantines and re-materializes it out of band.
            return None
        return Checkpoint.from_bytes(blob.data).snapshot

    return SnapshotCache(load_manifests, load_checkpoint)
