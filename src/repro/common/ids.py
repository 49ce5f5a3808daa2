"""Deterministic identifier generation.

Commits are ordered by monotonically increasing sequence ids (Section 3.1
of the paper), and transactions, tasks, nodes and tables get theirs from
the same kind of sequence.  Everything a transaction writes is named
after it (:class:`TransactionNames`): its manifest ``{txid:x}``, its data
and deletion-vector files and staged manifest blocks ``{txid:x}.{n:x}``
with ``n`` drawn fresh for every put.  Transaction ids never repeat in
one deployment's store, so neither do these names, and no name carries
randomness: two runs with the same seed write the same names (DESIGN.md
"File names").
"""

from __future__ import annotations

import itertools


class MonotonicSequence:
    """A strictly increasing integer sequence starting at ``start``.

    Used for transaction ids, commit sequence numbers, task ids and node
    ids.  Instances are cheap; each id space gets its own sequence.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)
        self._last = start - 1

    def next(self) -> int:
        """Return the next integer in the sequence."""
        self._last = next(self._counter)
        return self._last

    @property
    def last(self) -> int:
        """The most recently issued value (``start - 1`` if none yet)."""
        return self._last


class TransactionNames:
    """The names one transaction writes under.

    ``manifest`` is the transaction's manifest name (one manifest per
    transaction per table, each under its own table's root);
    :meth:`next` is ``{txid:x}.{n:x}`` with a fresh ordinal ``n`` on every
    call, for a file put or a staged block.  A retried put draws a new
    name, so it never meets a blob an earlier attempt may have left.
    """

    def __init__(self, txid: int) -> None:
        self.manifest = f"{txid:x}"
        self._ordinals = itertools.count()

    def next(self) -> str:
        """A name no earlier call returned: ``{txid:x}.{n:x}``."""
        return f"{self.manifest}.{next(self._ordinals):x}"
