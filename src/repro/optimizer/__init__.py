"""Cost-based query optimizer: statistics, indexes, join planning.

The subsystem that makes plan choice data-driven (top ROADMAP item):

* :mod:`repro.optimizer.statistics` — ANALYZE's product: NDV, null
  fractions, min/max and equi-depth histograms per column, versioned
  with the snapshot sequence in the ``TableStats`` catalog table.
* :mod:`repro.optimizer.indexes` — sorted-run secondary index files
  over the pagefile format, with covered-file staleness defence.
* :mod:`repro.optimizer.cardinality` — the one cardinality estimator:
  stats-aware, named defaults without stats, ``stats``/``default``
  provenance per plan node.
* :mod:`repro.optimizer.cost` — the cost model pricing scans, the one
  join and aggregates.
* :mod:`repro.optimizer.rewrite` — equality transitivity and greedy join
  reordering; identity without full statistics.
* :mod:`repro.optimizer.manager` — the per-deployment façade wired into
  :class:`repro.fe.context.ServiceContext`.
"""

from repro.optimizer.indexes import SortedRunIndex
from repro.optimizer.manager import QueryOptimizer
from repro.optimizer.rewrite import RewriteInfo, rewrite_plan
from repro.optimizer.statistics import (
    ColumnStatistics,
    TableStatistics,
    collect_table_statistics,
)

__all__ = [
    "ColumnStatistics",
    "QueryOptimizer",
    "RewriteInfo",
    "SortedRunIndex",
    "TableStatistics",
    "collect_table_statistics",
    "rewrite_plan",
]
