"""Manifest checkpoints (Section 5.2).

A checkpoint is a single file holding the fully reconciled table state as
of a sequence id.  Readers load the newest checkpoint at or below their
snapshot sequence and replay only the manifest tail — bounding
reconstruction cost regardless of table age.  A checkpoint holds the
live files and DVs and nothing else: no record of what was removed, so
its size follows the table's live file count, not its age.  Garbage
collection needs no removal history (:mod:`repro.sto.gc` keeps files by
reachability from the log), and a document that still carries a
``tombstones`` key is rejected as :class:`FileFormatError`.

On disk a checkpoint is one frame of the metadata codec
(:mod:`repro.lst.codec`, the manifests' codec) holding its compact JSON
document (:func:`encode_document`): the document repeats every key of
every live descriptor, so it deflates to under a third.  Decoding
(:func:`decode_document`) rejects anything but exactly one whole frame —
plain JSON, a cut or corrupt frame, a second frame, trailing bytes — as
:class:`FileFormatError`.

Writing a checkpoint never removes manifests and (unlike compaction) can
never conflict with user transactions.  While every manifest it covers
is still in the log, a checkpoint is a pure read optimization; once
garbage collection truncates them, that checkpoint is the source of
truth for the prefix it covers (:func:`repro.fe.manifest_io.make_snapshot_cache`
then refuses to replay around a lost one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict

from repro.common.errors import FileFormatError
from repro.lst.codec import decode_frames, encode_frame
from repro.lst.snapshot import TableSnapshot
from repro.storage import paths


def encode_document(document: Any) -> bytes:
    """A checkpoint's file bytes: its compact JSON in one frame."""
    return encode_frame(json.dumps(document, separators=(",", ":")).encode("utf-8"))


def decode_document(data: bytes, path: str = "<checkpoint>") -> Any:
    """Inverse of :func:`encode_document`.  Bytes that are not exactly one
    whole frame raise :class:`FileFormatError` naming ``path``; malformed
    JSON inside it raises ``ValueError``."""
    payloads = decode_frames(data, f"checkpoint {path}")
    if len(payloads) != 1:
        raise FileFormatError(
            f"corrupt checkpoint {path} ({len(payloads)} frames, not one)"
        )
    return json.loads(payloads[0])


@dataclass(frozen=True)
class Checkpoint:
    """A serialized snapshot plus the sequence id it covers."""

    sequence_id: int
    snapshot: TableSnapshot
    #: Simulated time the checkpoint was written (drives Figure 11).
    created_at: float

    def to_bytes(self, path: str) -> bytes:
        """Serialize the checkpoint to its file form, to be stored at
        ``path`` (its entries' paths derive from that blob's table root)."""
        payload: Dict[str, Any] = {
            "sequence_id": self.sequence_id,
            "created_at": self.created_at,
            "snapshot": self.snapshot.to_dict(*paths.table_of(path)),
        }
        return encode_document(payload)

    @classmethod
    def from_bytes(cls, data: bytes, path: str) -> "Checkpoint":
        """Parse the checkpoint blob at ``path``.

        Malformed bytes raise :class:`FileFormatError` naming ``path``.
        """
        try:
            raw = decode_document(data, path)
            checkpoint = cls(
                sequence_id=raw["sequence_id"],
                created_at=float(raw["created_at"]),
                snapshot=TableSnapshot.from_dict(
                    raw["snapshot"], *paths.table_of(path)
                ),
            )
        except (
            ValueError, LookupError, TypeError, AttributeError, ArithmeticError
        ) as exc:
            raise FileFormatError(
                f"checkpoint {path}: malformed ({type(exc).__name__}: {exc})"
            ) from None
        if (
            type(checkpoint.sequence_id) is not int
            or checkpoint.snapshot.sequence_id != checkpoint.sequence_id
        ):
            raise FileFormatError(
                f"checkpoint {path}: sequence id {checkpoint.sequence_id!r} "
                f"does not match its snapshot's "
                f"{checkpoint.snapshot.sequence_id!r}"
            )
        return checkpoint

    @classmethod
    def of(cls, snapshot: TableSnapshot, created_at: float) -> "Checkpoint":
        """Build a checkpoint covering ``snapshot``."""
        return cls(
            sequence_id=snapshot.sequence_id,
            snapshot=snapshot,
            created_at=created_at,
        )
