"""Logical metadata operations (DDL) over the SQL DB catalog.

Table rows carry the logical schema plus the designated distribution
column and the bucket count its hash used at CREATE (together the
``d(r)`` function of Figure 2, :class:`~repro.dcp.cells.Placement`).
DDL runs inside the caller's root transaction, so CREATE TABLE
participates in Snapshot Isolation like any other statement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.common.errors import CatalogError
from repro.dcp.cells import Placement
from repro.fe.context import ServiceContext
from repro.pagefile.schema import Schema
from repro.sqldb import system_tables as tables
from repro.sqldb.transaction import SqlDbTransaction


def create_table(
    context: ServiceContext,
    txn: SqlDbTransaction,
    name: str,
    schema: Schema,
    distribution_column: Optional[str] = None,
    sort_column: Union[str, Sequence[str], None] = None,
    unique_column: Optional[str] = None,
    buckets: Optional[int] = None,
) -> int:
    """Create a logical table; returns its table id.

    ``distribution_column`` is the hash function d(r) that spreads rows
    across cells, into ``buckets`` buckets (the warehouse's
    ``distributions`` unless a clone passes its source's);
    ``sort_column`` is the partitioning function p(r) that orders rows
    inside each data file for range retrieval (Figure 2 /
    Section 2.3 — the engine's stand-in for Z-ordering on one key);
    ``unique_column`` opts into unique-key enforcement, which the paper
    deliberately leaves off by default (Section 4.4.3).
    """
    if tables.find_table_by_name(txn, name) is not None:
        raise CatalogError(f"table {name!r} already exists")
    sort_columns = (
        [sort_column] if isinstance(sort_column, str)
        else list(sort_column or [])
    )
    if len(sort_columns) > 3:
        raise CatalogError("composite sort keys support at most 3 columns")
    checked = [("distribution", distribution_column), ("unique", unique_column)]
    checked.extend(("sort", column) for column in sort_columns)
    for label, column in checked:
        if column is not None and column not in schema:
            raise CatalogError(f"{label} column {column!r} not in schema")
    table_id = context.table_ids.next()
    row_schema = schema.to_dict()
    tables.insert_table(txn, table_id, name, row_schema, context.clock.now)
    extras = {}
    if distribution_column is not None:
        extras["distribution_column"] = distribution_column
        extras["distributions"] = buckets or context.config.distributions
    if sort_column is not None:
        # Normalized so backups (JSON) round-trip identically.
        extras["sort_column"] = (
            sort_column if isinstance(sort_column, str) else list(sort_column)
        )
    if unique_column is not None:
        extras["unique_column"] = unique_column
    if extras:
        # Stored alongside the schema in the Tables row.
        txn.upsert(
            tables.TABLES, (table_id,), lambda old: {**(old or {}), **extras}
        )
    return table_id


def describe_table(txn: SqlDbTransaction, name: str) -> Dict[str, Any]:
    """Catalog row of a table by name; raises if unknown."""
    row = tables.find_table_by_name(txn, name)
    if row is None:
        raise CatalogError(f"unknown table {name!r}")
    return row


def table_schema(row: Dict[str, Any]) -> Schema:
    """Parse the schema out of a Tables row."""
    return Schema.from_dict(row["schema"])


def table_placement(row: Dict[str, Any]) -> Optional[Placement]:
    """How a Tables row hashes its rows into buckets, or None for a table
    without a distribution column (its rows go round-robin)."""
    column = row.get("distribution_column")
    if column is None:
        return None
    kind = next(field["type"] for field in row["schema"] if field["name"] == column)
    return Placement(column, kind, row["distributions"])


def list_table_names(txn: SqlDbTransaction) -> List[str]:
    """Names of all visible tables."""
    return sorted(row["name"] for row in tables.list_tables(txn))
