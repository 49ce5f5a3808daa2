"""File-level zone maps of one snapshot, as per-column arrays.

Every :class:`~repro.lst.actions.DataFileInfo` carries ``(column, min,
max)`` triples recorded at write time.  :class:`ZoneMaps` lays one
snapshot's triples out column by column, so pruning a scan's conjuncts is
one array comparison per conjunct instead of a Python loop over files.
The answer is exactly :func:`~repro.pagefile.stats.may_contain` per file:
bounds and literal compare as the engine compares a column with that
literal (:func:`~repro.pagefile.stats.engine_order`: in float64 when
either side is a float, not at all when a string meets a number), files
without bounds for a column (empty or all-NaN chunks, older manifests)
are never pruned on it, and an operator other than the five comparisons
prunes nothing.

One more rule needs no bounds at all: given the table's
:class:`~repro.dcp.cells.Placement`, a row whose distribution column
equals a literal can only be in a file labelled with that literal's
bucket or in a *mixed* one, so an ``==`` conjunct on that column keeps
just those files (see DESIGN.md "Which files can hold a key").
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dcp.cells import Placement
from repro.lst.actions import DataFileInfo
from repro.pagefile.stats import engine_order

#: ``op`` -> test of the arrays (minimum, maximum) against a literal.
_MAY_CONTAIN: Dict[str, Callable[[np.ndarray, np.ndarray, Any], np.ndarray]] = {
    "==": lambda lo, hi, literal: (lo <= literal) & (hi >= literal),
    "<": lambda lo, hi, literal: lo < literal,
    "<=": lambda lo, hi, literal: lo <= literal,
    ">": lambda lo, hi, literal: hi > literal,
    ">=": lambda lo, hi, literal: hi >= literal,
}


def _objects(values: List[Any]) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


class ZoneMaps:
    """One snapshot's file zone maps, and its table's placement (None for
    a table without a distribution column).

    A column's arrays are built the first time a conjunct names it, so a
    scan pays only for the columns it prunes on.
    """

    __slots__ = ("names", "_placement", "_files", "_columns", "_labels")

    def __init__(
        self,
        files: Mapping[str, DataFileInfo],
        placement: Optional[Placement],
    ) -> None:
        #: File names in the snapshot's file order.
        self.names: List[str] = list(files)
        self._placement = placement
        self._files = list(files.values())
        #: column -> (positions of the files with bounds, minima, maxima).
        self._columns: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: (each file's bucket label, whether it is mixed), built on demand.
        self._labels: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _column(self, column: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        entry = self._columns.get(column)
        if entry is None:
            positions, lows, highs = [], [], []
            for position, info in enumerate(self._files):
                lo, hi = info.stats_for(column) or (None, None)
                if lo is not None and hi is not None:
                    positions.append(position)
                    lows.append(lo)
                    highs.append(hi)
            entry = self._columns[column] = (
                np.array(positions, dtype=np.intp),
                _objects(lows),
                _objects(highs),
            )
        return entry

    def _holders(self, placement: Placement, literal: Any) -> Optional[np.ndarray]:
        """Mask of the files that can hold a row whose key ``==``
        ``literal``, or None when the literal decides no bucket."""
        bucket = placement.bucket_of(literal)
        if bucket is None:
            return None
        if self._labels is None:
            count = len(self._files)
            self._labels = (
                np.fromiter((f.distribution for f in self._files), np.int64, count),
                np.fromiter((f.mixed for f in self._files), bool, count),
            )
        labels, mixed = self._labels
        return (labels == bucket) | mixed

    def keep(self, prune: Sequence[Tuple[str, str, Any]]) -> np.ndarray:
        """Mask over :attr:`names`: the files whose zone maps let rows
        satisfying every ``(column, op, literal)`` conjunct exist, and
        that can hold an ``==`` literal's bucket."""
        mask = np.ones(len(self.names), dtype=bool)
        for column, op, literal in prune:
            test = _MAY_CONTAIN.get(op)
            if test is None:
                continue
            placement = self._placement
            if op == "==" and placement is not None and column == placement.column:
                holders = self._holders(placement, literal)
                if holders is not None:
                    mask &= holders
            positions, lows, highs = self._column(column)
            if not len(positions):
                continue
            order = engine_order(lows[0], literal)
            if order is None:
                continue
            if order == "float64":
                lows, highs = lows.astype(np.float64), highs.astype(np.float64)
                literal = float(literal)
            # A NaN operand makes the comparison false, as in Python; the
            # floating-point flag it raises is no error here.
            with np.errstate(invalid="ignore"):
                may = test(lows, highs, literal).astype(bool)
            mask[positions[~may]] = False
        return mask

    def matching(self, prune: Sequence[Tuple[str, str, Any]]) -> List[str]:
        """The names of the files :meth:`keep` keeps, in file order."""
        return list(compress(self.names, self.keep(prune)))
