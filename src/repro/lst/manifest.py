"""Manifest wire format and intra-transaction reconciliation.

A manifest file is a sequence of *blocks*.  Each BE task serializes its
actions into one block: a frame of the metadata codec
(:mod:`repro.lst.codec`) whose payload is one compact JSON array, one
object per action.  The concatenation of the blocks named in the final
commit-block-list is the manifest content (Section 3.2.2); a frame says
where it ends, so the wire form survives arbitrary block concatenation.
Bytes that are not whole frames, plain JSON included, are a
:class:`~repro.common.errors.FileFormatError`.

:func:`reconcile_actions` implements the manifest *rewrite* of
Section 3.2.3: actions that were made obsolete by later actions of the
same transaction are dropped, so the final manifest never references
superseded private files.  A statement whose actions reconcile to
themselves (nothing dropped) has nothing to rewrite; the FE appends its
blocks instead (:meth:`~repro.fe.transaction.PolarisTransaction.flush_rewrite`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.common.errors import FileFormatError
from repro.lst.actions import (
    Action,
    AddDataFile,
    AddDeletionVector,
    RemoveDataFile,
    RemoveDeletionVector,
    action_from_dict,
)
from repro.lst.codec import decode_frames, encode_frame
from repro.storage import paths


def encode_actions(actions: List[Action]) -> bytes:
    """Serialize actions into one manifest block (one frame)."""
    document = [action.to_dict() for action in actions]
    return encode_frame(json.dumps(document, separators=(",", ":")).encode("utf-8"))


def decode_manifest(data: bytes, path: str) -> List[Action]:
    """Parse the manifest blob at ``path`` (any concatenation of encoded
    blocks); its descriptors' paths derive from ``path``'s table root.

    Malformed bytes raise :class:`FileFormatError` naming ``path``.
    """
    database, table_id = paths.table_of(path)
    actions: List[Action] = []
    for payload in decode_frames(data, f"manifest {path}"):
        try:
            block = json.loads(payload)
            if type(block) is not list:
                raise TypeError(f"a block holds {type(block).__name__}, not a list")
            actions.extend(action_from_dict(raw, database, table_id) for raw in block)
        except (
            ValueError, LookupError, TypeError, AttributeError, ArithmeticError
        ) as exc:
            raise FileFormatError(
                f"manifest {path}: malformed ({type(exc).__name__}: {exc})"
            ) from None
    return actions


def reconcile_actions(actions: List[Action]) -> Tuple[List[Action], List[str]]:
    """Compute the net effect of a transaction's accumulated actions.

    Returns ``(net_actions, orphaned_paths)`` where ``orphaned_paths`` are
    object-store paths of private files that the transaction created and
    then superseded within its own lifetime — they will never be referenced
    by the committed manifest and await garbage collection.

    Rules (file names are unique, so pairs match exactly):

    * ``Add f`` then ``Remove f``     → both drop; ``f`` is orphaned.
    * ``Add dv`` then ``Remove dv``   → both drop; the DV file is orphaned.
    * two ``Add dv`` for the same target data file → only the last survives;
      earlier private DVs are orphaned.  (A DV the table already had is
      removed via an explicit ``Remove dv``, which is kept.)
    * ``Remove dv`` of a data file the transaction also removes → the
      ``Remove dv`` drops (removing the file retires its DV).
    * everything else is kept, removes ordered before adds.
    """
    added_files: Dict[str, AddDataFile] = {}
    removed_files: Dict[str, RemoveDataFile] = {}
    added_dvs: Dict[str, AddDeletionVector] = {}  # keyed by *target* file
    removed_dvs: Dict[str, RemoveDeletionVector] = {}  # keyed by dv name
    orphans: List[str] = []

    for action in actions:
        if isinstance(action, AddDataFile):
            added_files[action.file.name] = action
        elif isinstance(action, RemoveDataFile):
            if action.name in added_files:
                orphans.append(added_files.pop(action.name).file.path)
                # Any private DV on the cancelled private file dangles too.
                private_dv = added_dvs.pop(action.name, None)
                if private_dv is not None:
                    orphans.append(private_dv.dv.path)
            else:
                removed_files[action.name] = action
        elif isinstance(action, AddDeletionVector):
            previous = added_dvs.get(action.dv.target_file)
            if previous is not None:
                orphans.append(previous.dv.path)
            added_dvs[action.dv.target_file] = action
        elif isinstance(action, RemoveDeletionVector):
            # Removing a DV this transaction itself added: both vanish.
            private = added_dvs.get(action.target_file)
            if private is not None and private.dv.name == action.name:
                orphans.append(private.dv.path)
                del added_dvs[action.target_file]
            else:
                removed_dvs[action.name] = action
        else:  # pragma: no cover - exhaustive over the Action union
            raise TypeError(f"unknown action {action!r}")

    # A DV targeting a data file that this same transaction removed is
    # pointless (the file is gone); drop it as an orphan too.
    for target in list(added_dvs):
        if target in removed_files:
            orphans.append(added_dvs.pop(target).dv.path)
    for name, action in list(removed_dvs.items()):
        if action.target_file in removed_files:
            del removed_dvs[name]

    net: List[Action] = []
    net.extend(removed_files[name] for name in sorted(removed_files))
    net.extend(removed_dvs[name] for name in sorted(removed_dvs))
    net.extend(added_files[name] for name in sorted(added_files))
    net.extend(added_dvs[target] for target in sorted(added_dvs))
    return net, orphans
