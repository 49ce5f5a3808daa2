"""Physical-metadata IO: manifests and checkpoints between catalog and store.

The ``Manifests`` catalog table holds *names*; the manifest *contents*
live in the object store.  This module bridges the two for the BE snapshot
cache: loading committed manifests for a sequence range and loading the
newest checkpoint at or below a sequence.  Garbage collection reads a
table's log tail through the same manifest loader
(``SnapshotCache.load_manifests``) to find the files it adds.

A checkpoint holds a table's live files and DVs only, and is an
acceleration only while the manifests it covers are still in the log.
Garbage collection truncates covered manifests once they are below its
horizon (and records how far, ``Truncations``); from then on the
checkpoint is the source of truth for that prefix, and losing it is
losing the table's state rather than a reason to replay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import (
    BlobNotFoundError,
    CheckpointLostError,
    FileFormatError,
)
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
    return decode_manifest(blob.data, path)


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
        """The newest readable checkpoint at or below ``max_seq`` (None:
        replay from empty).  Once GC has truncated the manifests a replay
        from there would need, the checkpoint is the source of truth: an
        unreadable one raises :class:`CheckpointLostError`."""
        txn = context.sqldb.begin()
        try:
            row = catalog.latest_checkpoint(txn, table_id, max_seq)
            truncated = catalog.truncated_through(txn, table_id)
        finally:
            txn.abort()
        snapshot = None
        if row is not None:
            try:
                blob = with_retries(
                    lambda: context.store.get(row["path"]),
                    telemetry=context.telemetry,
                    label="checkpoint_load",
                    clock=context.clock,
                    seed=context.config.seed,
                )
                snapshot = Checkpoint.from_bytes(blob.data, row["path"]).snapshot
            except (BlobNotFoundError, FileFormatError):
                # A missing, corrupt or malformed checkpoint degrades to
                # manifest replay while the manifests survive (below); the
                # scrubber quarantines and re-materializes it out of band.
                pass
        # Replay from here needs every manifest in (base, max_seq]; the
        # truncated ones, up to ``truncated``, are gone.
        base = 0 if snapshot is None else snapshot.sequence_id
        if base < min(truncated, max_seq):
            source = "no checkpoint" if row is None else row["path"]
            raise CheckpointLostError(
                f"table {table_id} @ {max_seq}: replay from {base} ({source}) "
                f"needs manifests GC truncated up to {truncated}"
            )
        return snapshot

    return SnapshotCache(load_manifests, load_checkpoint)
