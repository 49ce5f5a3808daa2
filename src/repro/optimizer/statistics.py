"""Collected table statistics: NDV, null fractions, equi-depth histograms.

``ANALYZE`` scans a table snapshot and distills each column into a
:class:`ColumnStatistics`: row count, number of distinct values, null
fraction, min/max, and an equi-depth histogram (every bucket holds the
same number of rows, so skewed columns get narrow buckets around their
hot values).  A :class:`TableStatistics` bundles the columns with the
snapshot ``sequence_id`` the scan saw — stats are *versioned catalog
state* (TreeCat's argument), so a time-travel read resolves the stats
that described the data it sees.

Selectivity estimation reads the histogram for range predicates and the
NDV for equality; both are the classic System-R formulas, documented in
``docs/OPTIMIZER.md``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.common.errors import PlanError
from repro.pagefile.schema import Field, Schema

#: Statistics sources recorded in the catalog row.
SOURCE_ANALYZE = "analyze"
SOURCE_AUTO = "auto"


def _py(value: Any) -> Any:
    """Convert a numpy scalar to its plain-Python equivalent."""
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class ColumnStatistics:
    """Distilled distribution of one column at one snapshot."""

    column: str
    col_type: str
    #: Number of distinct non-null values.
    ndv: int
    #: Fraction of rows that are null (NaN in float columns; the engine
    #: has no other null representation).
    null_fraction: float
    minimum: Any
    maximum: Any
    #: Equi-depth histogram: ascending bucket *upper bounds* over the
    #: non-null values; bucket ``i`` spans ``(bound[i-1], bound[i]]``
    #: (the first bucket starts at ``minimum``).  Empty when no rows.
    histogram: List[Any] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable catalog form."""
        return {
            "column": self.column,
            "col_type": self.col_type,
            "ndv": self.ndv,
            "null_fraction": self.null_fraction,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "histogram": list(self.histogram),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ColumnStatistics":
        """Inverse of :meth:`to_dict`."""
        return cls(
            column=raw["column"],
            col_type=raw["col_type"],
            ndv=raw["ndv"],
            null_fraction=raw["null_fraction"],
            minimum=raw["minimum"],
            maximum=raw["maximum"],
            histogram=list(raw["histogram"]),
        )

    # -- selectivity ---------------------------------------------------------

    def selectivity(self, op: str, literal: Any) -> float:
        """Estimated fraction of rows satisfying ``column <op> literal``.

        Equality uses ``1/NDV`` (uniform within distinct values); ranges
        interpolate through the equi-depth histogram.  Comparisons never
        match nulls, so every estimate is scaled by ``1 - null_fraction``.
        """
        notnull = 1.0 - self.null_fraction
        if self.ndv <= 0 or self.minimum is None:
            return 0.0
        if op == "==":
            if literal < self.minimum or literal > self.maximum:
                return 0.0
            return notnull / self.ndv
        if op == "!=":
            return notnull * (1.0 - 1.0 / self.ndv)
        if op in ("<", "<="):
            return notnull * self._fraction_below(literal, op == "<=")
        if op in (">", ">="):
            return notnull * (1.0 - self._fraction_below(literal, op == ">"))
        raise PlanError(f"unknown pruning operator {op!r}")

    def _fraction_below(self, literal: Any, inclusive: bool) -> float:
        """Fraction of non-null values ``<`` (or ``<=``) ``literal``."""
        if literal < self.minimum:
            return 0.0
        if literal > self.maximum or (inclusive and literal == self.maximum):
            return 1.0
        if not self.histogram:
            return 0.5
        buckets = len(self.histogram)
        # Full buckets strictly below the literal.
        locate = bisect_right if inclusive else bisect_left
        index = locate(self.histogram, literal)
        if index >= buckets:
            return 1.0
        lower = self.minimum if index == 0 else self.histogram[index - 1]
        upper = self.histogram[index]
        fraction = index / buckets
        # Partial credit inside the containing bucket: linear
        # interpolation for numerics, half a bucket for strings.
        if isinstance(literal, (int, float)) and upper != lower:
            within = (literal - lower) / (upper - lower)
            within = min(max(within, 0.0), 1.0)
        else:
            within = 0.5
        return min(fraction + within / buckets, 1.0)


@dataclass
class TableStatistics:
    """All collected statistics of one table at one snapshot sequence."""

    table_id: int
    table_name: str
    #: Snapshot sequence the collecting scan saw; reads at sequence *s*
    #: resolve the newest stats with ``sequence_id <= s``.
    sequence_id: int
    row_count: int
    analyzed_at: float
    #: ``analyze`` (explicit SQL) or ``auto`` (STO ingest-volume job).
    source: str
    #: Query-store feedback correction: multiplies scan estimates for
    #: this table.  1.0 when the store saw no misestimates (or is off).
    feedback_factor: float
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        """Stats of one column, or None if it was not collected."""
        return self.columns.get(name)

    def to_row(self) -> Dict[str, Any]:
        """Catalog-row payload for ``system_tables.put_table_stats``."""
        return {
            "table_name": self.table_name,
            "row_count": self.row_count,
            "analyzed_at": self.analyzed_at,
            "source": self.source,
            "feedback_factor": self.feedback_factor,
            "columns": {
                name: stats.to_dict() for name, stats in self.columns.items()
            },
        }

    @classmethod
    def from_row(cls, row: Dict[str, Any]) -> "TableStatistics":
        """Rehydrate from a ``TableStats`` catalog row."""
        return cls(
            table_id=row["table_id"],
            table_name=row["table_name"],
            sequence_id=row["sequence_id"],
            row_count=row["row_count"],
            analyzed_at=row["analyzed_at"],
            source=row["source"],
            feedback_factor=row["feedback_factor"],
            columns={
                name: ColumnStatistics.from_dict(raw)
                for name, raw in row["columns"].items()
            },
        )


def collect_column_statistics(
    fld: Field, values: np.ndarray, buckets: int
) -> ColumnStatistics:
    """Distill one materialized column into :class:`ColumnStatistics`."""
    total = len(values)
    if fld.type == "float64" and total:
        null_mask = np.isnan(values)
        nulls = int(null_mask.sum())
        values = values[~null_mask]
    else:
        nulls = 0
    null_fraction = (nulls / total) if total else 0.0
    if len(values) == 0:
        return ColumnStatistics(
            column=fld.name,
            col_type=fld.type,
            ndv=0,
            null_fraction=null_fraction,
            minimum=None,
            maximum=None,
            histogram=[],
        )
    if values.dtype.kind == "O":
        ordered = sorted(str(v) for v in values)
        distinct = len(set(ordered))
    else:
        ordered_arr = np.sort(values)
        ordered = ordered_arr.tolist()
        distinct = int(len(np.unique(ordered_arr)))
    return ColumnStatistics(
        column=fld.name,
        col_type=fld.type,
        ndv=distinct,
        null_fraction=null_fraction,
        minimum=_py(ordered[0]),
        maximum=_py(ordered[-1]),
        histogram=equi_depth_bounds(ordered, buckets),
    )


def equi_depth_bounds(ordered: List[Any], buckets: int) -> List[Any]:
    """Upper bounds of ``buckets`` equi-depth buckets over sorted values."""
    n = len(ordered)
    if n == 0 or buckets < 1:
        return []
    bounds: List[Any] = []
    for i in range(1, buckets + 1):
        position = math.ceil(i * n / buckets) - 1
        bounds.append(_py(ordered[position]))
    return bounds


def collect_table_statistics(
    table_id: int,
    table_name: str,
    sequence_id: int,
    schema: Schema,
    columns: Dict[str, np.ndarray],
    buckets: int,
    analyzed_at: float,
    source: str = SOURCE_ANALYZE,
    feedback_factor: float = 1.0,
) -> TableStatistics:
    """Distill a fully materialized table into :class:`TableStatistics`."""
    row_count = 0
    for values in columns.values():
        row_count = len(values)
        break
    return TableStatistics(
        table_id=table_id,
        table_name=table_name,
        sequence_id=sequence_id,
        row_count=row_count,
        analyzed_at=analyzed_at,
        source=source,
        feedback_factor=feedback_factor,
        columns={
            fld.name: collect_column_statistics(
                fld, columns[fld.name], buckets
            )
            for fld in schema
        },
    )
