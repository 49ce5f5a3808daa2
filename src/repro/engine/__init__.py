"""Vectorized query engine.

Single-node execution (the role SQL Server plays on each BE node) works on
column batches — dicts of numpy arrays — with materialized,
column-at-a-time operators: filter, project, one equi-join, grouped
aggregation, sort, limit.  Plans (:mod:`planner`) are built
programmatically — the 22 TPC-H queries in
:mod:`repro.workloads.tpch.queries` do — or bound from SQL text by
:mod:`repro.sql`; either way a statement is compiled once and
:func:`repro.engine.executor.execute_plan` is the only interpreter of
the resulting tree.  :mod:`explain` renders plans and, through the
executor's per-operator observer, EXPLAIN ANALYZE.

A string column scanned from dictionary-encoded chunks arrives as a
:class:`repro.pagefile.encoding.DictArray`: the ``str`` values as ever,
plus the codes and dictionary the page file stored.  The key factoriser
takes those codes as they are and string predicates run once per
dictionary entry; :mod:`batch`'s ``take`` / ``mask`` / ``concat_batches``
carry the hint along, anything else drops it, and no result depends on it.

Distributed execution lives in :mod:`repro.fe.read_path`: one DCP
workflow DAG per base-table scan (one task per data cell, with
projection, predicate and deletion-vector merge pushed down), then the
rest of the plan over the concatenated partials at the root — mirroring
the single-phase compilation in the SQL FE described in Section 3.3.
"""

from repro.engine.batch import Batch, concat_batches, empty_batch, num_rows
from repro.engine.expressions import (
    BinOp,
    BoolOp,
    Case,
    Col,
    InList,
    Like,
    Lit,
    Not,
    Substr,
    Year,
    evaluate,
)
from repro.engine.planner import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Sort,
    TableScan,
)

__all__ = [
    "Aggregate",
    "Batch",
    "BinOp",
    "BoolOp",
    "Case",
    "Col",
    "Filter",
    "InList",
    "Join",
    "Like",
    "Limit",
    "Lit",
    "Not",
    "Plan",
    "Project",
    "Sort",
    "Substr",
    "TableScan",
    "Year",
    "concat_batches",
    "empty_batch",
    "evaluate",
    "num_rows",
]
