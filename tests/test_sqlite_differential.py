"""Differential test against an independent engine: stdlib ``sqlite3``.

The seeded TPC-H micro tables (SF 0.05) are loaded both into a warehouse
and into an in-memory SQLite database, dates as the engine's integer
days (``date.toordinal()``), and every statement runs on both:

* the six ``TPCH_SQL_QUERIES`` texts, with ``DATE 'YYYY-MM-DD'``
  literals rewritten to those integers for SQLite;
* the four statement shapes of the ``sql_point_lookup`` workload, over
  50 seeded keys each, against a warehouse with that workload's small
  row groups, ANALYZEd tables and indexes.

The two results must agree row for row — in order when the statement
orders its rows, as sorted rows otherwise — and column for column in
name and dtype.  **The float rule**, written once in
:func:`assert_same_result`: a column computed by ``SUM`` or ``AVG`` may
differ by at most 1e-12 relative (the two engines add in different
orders); every other value, floats read from a column included, must be
equal.  What the page files store is therefore checked against an engine
that never read them: every float column goes through the ``DEC`` chunk
encoding here, and a self-comparison would miss a mistake in it.

Budget: the whole module runs in under 10 s on a 2-core container.
"""

import datetime
import re
import sqlite3

import numpy as np
import pytest

from benchmarks.e2e.workloads.sql_point_lookup import INDEXES, RANGE_DAYS
from repro import SqlSession, Warehouse
from repro.engine.batch import num_rows
from repro.workloads.tpch import TPCH_SQL_QUERIES
from repro.workloads.tpch.generator import TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS
from tests.conftest import small_config

SCALE_FACTOR = 0.05
SEED = 42
#: Seeded keys per point-lookup shape.
KEYS_PER_SHAPE = 50

#: Column type -> (SQLite declared type, the dtype a result column of it has).
TYPES = {
    "int64": ("INTEGER", np.dtype(np.int64)),
    "float64": ("REAL", np.dtype(np.float64)),
    "string": ("TEXT", np.dtype(object)),
}
#: The dtype of a result column holding SQLite values of this Python type.
VALUE_DTYPES = {
    int: np.dtype(np.int64),
    float: np.dtype(np.float64),
    str: np.dtype(object),
}

_DATE = re.compile(r"DATE '(\d{4})-(\d{2})-(\d{2})'")
_AGGREGATE = re.compile(r"\b(SUM|AVG)\s*\(", re.IGNORECASE)
_ALIAS = re.compile(r"\bAS\s+(\w+)\s*$", re.IGNORECASE)


@pytest.fixture(scope="module")
def tables():
    return TpchGenerator(scale_factor=SCALE_FACTOR, seed=SEED).all_tables()


@pytest.fixture(scope="module")
def sqlite(tables):
    db = sqlite3.connect(":memory:")
    db.execute("PRAGMA case_sensitive_like = ON")  # LIKE as the engine does it
    for name, batch in tables.items():
        schema = TPCH_SCHEMAS[name]
        columns = ", ".join(f"{f.name} {TYPES[f.type][0]}" for f in schema)
        db.execute(f"CREATE TABLE {name} ({columns})")
        rows = zip(*(batch[f.name].tolist() for f in schema))
        marks = ", ".join("?" * len(schema))
        db.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    yield db
    db.close()


def _load(tables, indexed: bool) -> Warehouse:
    config = small_config()
    if indexed:
        # As sql_point_lookup: small row groups, so zone maps prune inside files.
        config.row_group_size = 1_024
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    for name, batch in tables.items():
        session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
        session.insert(name, batch)
    if indexed:
        for name in tables:
            session.analyze_table(name)
        for table, index_name, column in INDEXES:
            session.create_index(table, index_name, column)
    return dw


@pytest.fixture(scope="module")
def plain(tables):
    return SqlSession(_load(tables, indexed=False).session())


@pytest.fixture(scope="module")
def indexed(tables):
    return SqlSession(_load(tables, indexed=True).session())


def for_sqlite(sql: str) -> str:
    """``sql`` with each ``DATE 'YYYY-MM-DD'`` as the engine's day number."""
    return _DATE.sub(
        lambda m: str(datetime.date(*map(int, m.groups())).toordinal()), sql
    )


def aggregated_columns(sql: str) -> set:
    """The output columns of ``sql`` computed by ``SUM`` or ``AVG``."""
    select = re.search(r"SELECT(.*?)\bFROM\b", sql, re.I | re.S).group(1)
    items, depth, start = [], 0, 0
    for at, char in enumerate(select):
        depth += {"(": 1, ")": -1}.get(char, 0)
        if char == "," and depth == 0:
            items.append(select[start:at])
            start = at + 1
    items.append(select[start:])
    return {
        _ALIAS.search(item.strip()).group(1)
        for item in items
        if _AGGREGATE.search(item) and _ALIAS.search(item.strip())
    }


def declared_dtypes(db) -> dict:
    """Column name -> the dtype its table declares, over every table."""
    dtypes = {}
    for (table,) in db.execute("SELECT name FROM sqlite_master WHERE type = 'table'"):
        for __, name, declared, *__ in db.execute(f"PRAGMA table_info({table})"):
            dtypes[name] = next(d for t, d in TYPES.values() if t == declared)
    return dtypes


def assert_same_result(got, db, sql: str) -> None:
    """``got`` (the engine's result of ``sql``) equals SQLite's answer."""
    cursor = db.execute(for_sqlite(sql))
    want = cursor.fetchall()
    names = [column[0] for column in cursor.description]
    assert list(got) == names, sql
    assert num_rows(got) == len(want), sql
    declared = declared_dtypes(db)
    for position, name in enumerate(names):
        kinds = {type(row[position]) for row in want}
        assert len(kinds) <= 1 and type(None) not in kinds, (name, kinds)
        dtype = VALUE_DTYPES[kinds.pop()] if kinds else declared[name]
        assert got[name].dtype == dtype, (sql, name)
    rows = list(zip(*(got[name].tolist() for name in names)))
    if not re.search(r"\bORDER\s+BY\b", sql, re.IGNORECASE):
        rows, want = sorted(rows), sorted(want)
    approximate = [name in aggregated_columns(sql) for name in names]
    for row, expected in zip(rows, want):
        for value, wanted, loose in zip(row, expected, approximate):
            if loose and isinstance(wanted, float):
                assert abs(value - wanted) <= 1e-12 * max(abs(value), abs(wanted)), (
                    sql, row, expected,
                )
            else:
                assert value == wanted, (sql, row, expected)


@pytest.mark.parametrize("qnum", sorted(TPCH_SQL_QUERIES))
def test_tpch_queries_match_sqlite(qnum, plain, sqlite):
    sql = TPCH_SQL_QUERIES[qnum]
    assert_same_result(plain.execute(sql), sqlite, sql)


def point_lookups(tables, seed: int = 0):
    """The four ``sql_point_lookup`` statement shapes, 50 seeded keys each."""
    rng = np.random.default_rng(seed)
    customers = len(tables["customer"]["c_custkey"])
    order_keys = tables["orders"]["o_orderkey"]
    shipdates = tables["lineitem"]["l_shipdate"]
    first, last = int(shipdates.min()), int(shipdates.max())
    for __ in range(KEYS_PER_SHAPE):
        key = int(rng.integers(1, customers + 1))
        yield (
            "SELECT c_custkey, c_name, c_acctbal FROM customer "
            f"WHERE c_custkey = {key}"
        )
        key = int(order_keys[rng.integers(0, len(order_keys))])
        yield (
            "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem "
            f"WHERE l_orderkey = {key}"
        )
        key = int(rng.integers(1, customers + 1))
        yield (
            "SELECT o_orderkey, o_totalprice FROM orders "
            f"JOIN customer ON o_custkey = c_custkey WHERE c_custkey = {key}"
        )
        day = int(rng.integers(first, last))
        yield (
            "SELECT l_orderkey, l_shipdate FROM lineitem "
            f"WHERE l_shipdate >= {day} AND l_shipdate < {day + RANGE_DAYS}"
        )


def test_point_lookups_match_sqlite(tables, indexed, sqlite):
    statements = list(point_lookups(tables))
    assert len(statements) == 4 * KEYS_PER_SHAPE
    empty = 0
    for sql in statements:
        got = indexed.execute(sql)
        empty += num_rows(got) == 0
        assert_same_result(got, sqlite, sql)
    # Customers without orders: empty results, whose dtypes are checked too.
    assert 0 < empty < len(statements)


class TestTheRule:
    def test_aggregated_columns(self):
        assert aggregated_columns(TPCH_SQL_QUERIES[1]) == {
            "sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
            "avg_qty", "avg_price", "avg_disc",
        }
        assert aggregated_columns(TPCH_SQL_QUERIES[10]) == {"revenue"}
        assert aggregated_columns(TPCH_SQL_QUERIES[14]) == {"promo_revenue"}

    def test_dates_become_day_numbers(self):
        assert for_sqlite("x < DATE '1995-03-15'") == (
            f"x < {datetime.date(1995, 3, 15).toordinal()}"
        )

    def test_a_float_read_from_a_column_must_be_equal(self, sqlite):
        sql = "SELECT c_custkey, c_acctbal FROM customer WHERE c_custkey = 1"
        got = {
            "c_custkey": np.array([1], dtype=np.int64),
            "c_acctbal": np.array([sqlite.execute(sql).fetchone()[1] + 1e-9]),
        }
        with pytest.raises(AssertionError):
            assert_same_result(got, sqlite, sql)

    def test_a_wrong_dtype_fails(self, sqlite):
        sql = "SELECT c_custkey FROM customer WHERE c_custkey = -1"
        with pytest.raises(AssertionError):
            assert_same_result({"c_custkey": np.array([], dtype=object)}, sqlite, sql)
