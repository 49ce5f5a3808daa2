"""Per-row-group column statistics (zone maps).

Each row group records min/max per column.  The scan path uses them to
skip row groups that cannot satisfy a predicate — the reproduction's
analogue of the Z-order/zone-map pruning the paper relies on for
range-based retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

import numpy as np

from repro.pagefile.schema import Field


def may_contain(minimum: Any, maximum: Any, op: str, literal: Any) -> bool:
    """Whether rows matching ``column <op> literal`` can exist in a chunk
    whose values lie in ``[minimum, maximum]``.

    Conservative: returns True whenever pruning is not provably safe —
    unknown bounds (``None``) and operators other than the five
    comparisons never prune.
    """
    if minimum is None or maximum is None:
        return True
    if op == "==":
        return minimum <= literal <= maximum
    if op == "<":
        return minimum < literal
    if op == "<=":
        return minimum <= literal
    if op == ">":
        return maximum > literal
    if op == ">=":
        return maximum >= literal
    return True


@dataclass(frozen=True)
class ColumnStats:
    """Min/max statistics for one column within one row group.

    ``None``/``None`` means "unknown" (an empty chunk, or a float chunk
    holding nothing but NaN): such a chunk is never pruned.
    """

    minimum: Any
    maximum: Any

    def may_contain(self, op: str, literal: Any) -> bool:
        """:func:`may_contain` over this chunk's bounds."""
        return may_contain(self.minimum, self.maximum, op, literal)


def string_items(values: np.ndarray) -> List[str]:
    """A string column's values as a list of ``str`` (anything else is
    rendered with ``str()``, as the writer always has)."""
    items = np.asarray(values, dtype=object).tolist()
    if set(map(type, items)) - {str}:
        items = list(map(str, items))
    return items


def compute_stats(field: Field, values: np.ndarray) -> ColumnStats:
    """Compute min/max for a column chunk (None for empty chunks).

    Float min/max ignore NaN — a NaN bound would make every comparison in
    :meth:`ColumnStats.may_contain` false and prune live rows.
    """
    if len(values) == 0:
        return ColumnStats(minimum=None, maximum=None)
    if field.type == "string":
        items = string_items(values)
        return ColumnStats(minimum=min(items), maximum=max(items))
    if field.type == "float64":
        minimum = float(np.fmin.reduce(values))
        if minimum != minimum:  # nothing but NaN
            return ColumnStats(minimum=None, maximum=None)
        return ColumnStats(minimum=minimum, maximum=float(np.fmax.reduce(values)))
    if field.type == "bool":
        return ColumnStats(minimum=bool(values.min()), maximum=bool(values.max()))
    return ColumnStats(minimum=int(values.min()), maximum=int(values.max()))
