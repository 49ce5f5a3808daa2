"""Differential test against an independent engine: stdlib ``sqlite3``.

The seeded TPC-H micro tables (SF 0.05) are loaded both into a warehouse
and into an in-memory SQLite database, dates as the engine's integer
days (``date.toordinal()``), and every statement runs on both:

* the six ``TPCH_SQL_QUERIES`` texts, with ``DATE 'YYYY-MM-DD'``
  literals rewritten to those integers for SQLite;
* the four statement shapes of the ``sql_point_lookup`` workload, over
  50 seeded keys each, against a warehouse with that workload's small
  row groups, ANALYZEd tables and indexes: the first key of each shape
  is bound, the other 49 are served from the plan cache, and one key
  per shape runs again cold after the cache is cleared.

The two results must agree row for row — in order when the statement
orders its rows, as sorted rows otherwise — and column for column in
name and dtype.  **The float rule**, written once in
:func:`assert_same_result`: a column computed by ``SUM`` or ``AVG`` may
differ by at most 1e-12 relative (the two engines add in different
orders); every other value, floats read from a column included, must be
equal.  What the page files store is therefore checked against an engine
that never read them: every float column goes through the ``DEC`` chunk
encoding here, and a self-comparison would miss a mistake in it.

Last, hypothesis writes single-table statements ``SELECT … WHERE … ORDER
BY … [LIMIT n]`` over a table of clustered ``int64`` keys and day
numbers, ties and the two ``int64`` extremes included, in small row
groups, so zone maps (and the page files' frame-of-reference ``int64``
zone maps) prune: ``=``, ``<``, ``>=``, ``BETWEEN`` and ``IN`` on the key
and on dates (``DATE`` literals or bare day numbers).  A key literal may
lie just outside ``int64`` or be written as the sum of two; where the
literal or the sum is outside ``int64`` the statement must raise
:class:`~repro.common.errors.PlanError` (SQLite's answer is in REAL, see
:mod:`repro.sql.binder`), otherwise match SQLite.  Each statement
runs cold and again after a literal variant of it warmed the plan cache
(a hit whenever the variant's plan was stored); a string literal against either
column must raise :class:`~repro.common.errors.PlanError` both ways.

Budget: the whole module runs in under 10 s on a 2-core container.
"""

import datetime
import re
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads.sql_point_lookup import INDEXES, RANGE_DAYS
from repro import Schema, SqlSession, Warehouse
from repro.common.errors import PlanError
from repro.engine.batch import num_rows
from repro.sql.lexer import tokenize
from repro.sql.plan_cache import Shape
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
    cache = indexed.session._context.plan_cache
    cache.clear()
    hits, misses = cache.hits.value, cache.misses.value
    empty = 0
    for sql in statements:
        got = indexed.execute(sql)
        empty += num_rows(got) == 0
        assert_same_result(got, sqlite, sql)
    # Customers without orders: empty results, whose dtypes are checked too.
    assert 0 < empty < len(statements)
    # Each shape is bound once; every later key is served from the cache.
    assert cache.misses.value - misses == 4
    assert cache.hits.value - hits == len(statements) - 4
    # One key per shape again, cold: bound afresh, and still sqlite's answer.
    cache.clear()
    for sql in statements[:4]:
        assert_same_result(indexed.execute(sql), sqlite, sql)
    assert cache.misses.value - misses == 8
    assert cache.hits.value - hits == len(statements) - 4


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


# -- generated single-table statements -------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: The first day of the generated dates (1995-01-01).
FIRST_DAY = datetime.date(1995, 1, 1).toordinal()
KEYED_SCHEMA = Schema.of(("id", "int64"), ("k", "int64"), ("d", "int64"), ("v", "float64"))


def keyed_batches():
    """Four inserts, each a sorted run of keys with ties (every key three
    times) and of dates (every day twice); the first and last hold the
    ``int64`` extremes."""
    for batch in range(4):
        ids = np.arange(batch * 150, (batch + 1) * 150, dtype=np.int64)
        keys = batch * 1_000 + (ids % 150) // 3 * 7
        if batch == 0:
            keys[:3] = INT64_MIN
        if batch == 3:
            keys[-3:] = INT64_MAX
        yield {
            "id": ids,
            "k": keys,
            "d": FIRST_DAY + batch * 100 + (ids % 150) // 2,
            "v": np.round((ids % 11) * 0.25 - 1.0, 2),
        }


@pytest.fixture(scope="module")
def keyed():
    """The generated table ``h`` in a warehouse (distributed on ``id``, 32-row
    row groups) and in SQLite."""
    config = small_config()
    config.row_group_size = 32
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    session.create_table("h", KEYED_SCHEMA, distribution_column="id")
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE h (id INTEGER, k INTEGER, d INTEGER, v REAL)")
    for batch in keyed_batches():
        session.insert("h", batch)
        rows = zip(*(batch[name].tolist() for name in KEYED_SCHEMA.names))
        db.executemany("INSERT INTO h VALUES (?, ?, ?, ?)", rows)
    yield SqlSession(dw.session()), db
    db.close()


STORED_KEYS = sorted({k for batch in keyed_batches() for k in batch["k"].tolist()})


def _keys():
    return st.one_of(
        st.sampled_from(STORED_KEYS),
        st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX, 0, -1]),
        st.integers(-50, 3_200),
        st.integers(INT64_MIN, INT64_MAX),
        # Just outside int64.
        st.sampled_from([INT64_MIN - 2, INT64_MIN - 1, INT64_MAX + 1, INT64_MAX + 2]),
    )


def _sums():
    """A key written as the sum of two ``int64`` literals, ``(a, b)``."""
    edge = st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX])
    return st.one_of(
        st.tuples(edge, st.integers(-2, 2)),
        st.tuples(st.integers(INT64_MIN, INT64_MAX), st.integers(INT64_MIN, INT64_MAX)),
        st.tuples(st.integers(-50, 3_200), st.integers(-50, 50)),
    )


def _days():
    return st.integers(FIRST_DAY - 20, FIRST_DAY + 420)


def _literal(column, value, dates_as_text):
    if isinstance(value, tuple):
        return f"{value[0]} + {value[1]}"
    if column == "d" and dates_as_text:
        return f"DATE '{datetime.date.fromordinal(value).isoformat()}'"
    return str(value)


def _outside_int64(literals):
    """Whether a literal, or a sum of two, is outside ``int64``: the
    binder's ``PlanError``, where SQLite goes on in REAL (the rule of
    :mod:`repro.sql.binder`)."""
    return any(
        not INT64_MIN <= (sum(value) if isinstance(value, tuple) else value) <= INT64_MAX
        for value in literals
    )


@st.composite
def conjuncts(draw, column):
    """One ``column`` predicate: a template with ``{}`` per literal, and
    the literal values (a key may be a sum, except in an ``IN`` list)."""
    values = st.one_of(_keys(), _sums()) if column == "k" else _days()
    op = draw(st.sampled_from(["=", "<", ">=", "BETWEEN", "IN"]))
    if op == "BETWEEN":
        return f"{column} BETWEEN {{}} AND {{}}", [draw(values), draw(values)]
    if op == "IN":
        values = _keys() if column == "k" else values
        items = draw(st.lists(values, min_size=1, max_size=4))
        return f"{column} IN ({', '.join('{}' for __ in items)})", items
    return f"{column} {op} {{}}", [draw(values)]


@st.composite
def statements(draw):
    """``(template, columns, literals, variant literals)``: one statement
    shape and two literal sets for it."""
    names = draw(st.lists(st.sampled_from(["k", "d"]), min_size=1, max_size=2))
    parts = [draw(conjuncts(column)) for column in names]
    order = draw(st.sampled_from(["k", "d", "v", "id"]))
    direction = draw(st.sampled_from(["", " DESC"]))
    limit = draw(st.one_of(st.none(), st.integers(0, 25)))
    where = " AND ".join(template for template, __ in parts)
    template = (
        f"SELECT id, k, d, v FROM h WHERE {where} ORDER BY {order}{direction}, id"
        + ("" if limit is None else f" LIMIT {limit}")
    )
    columns = [column for column, (__, values) in zip(names, parts) for __ in values]
    literals = [value for __, values in parts for value in values]
    variant = [draw(_keys() if column == "k" else _days()) for column in columns]
    return template, columns, literals, variant


def _render(template, columns, literals, dates_as_text):
    return template.format(*(
        _literal(column, value, dates_as_text) for column, value in zip(columns, literals)
    ))


@given(statements(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_generated_statements_match_sqlite(keyed, case, dates_as_text, data):
    sql_session, db = keyed
    template, columns, literals, variant = case
    sql = _render(template, columns, literals, dates_as_text)
    warm = _render(template, columns, variant, dates_as_text)

    def matches_sqlite(text, values):
        if _outside_int64(values):
            with pytest.raises(PlanError, match="outside int64"):
                sql_session.execute(text)
        else:
            assert_same_result(sql_session.execute(text), db, text)

    cache = sql_session.session._context.plan_cache
    cache.clear()
    matches_sqlite(sql, literals)  # cold
    cache.clear()
    matches_sqlite(warm, variant)
    # When the variant's plan was stored under the case's own shape (see
    # repro.sql.plan_cache), the case is served from it unless one of its
    # literals is a constant there.
    shape = Shape.of(tokenize(sql))
    stored = cache._entries.get(shape.key) if shape.cacheable else None
    hits = cache.hits.value
    matches_sqlite(sql, literals)  # after its variant
    if stored is not None and not set(shape.literals) & stored.constants:
        assert cache.hits.value == hits + 1, sql
    # A string where a key or a date belongs is a plan error, cold or warm.
    wrong = data.draw(st.integers(0, len(literals) - 1), label="wrong literal")
    mistyped = template.format(*(
        "'x'" if at == wrong else _literal(column, value, dates_as_text)
        for at, (column, value) in enumerate(zip(columns, literals))
    ))
    for __ in range(2):
        with pytest.raises(PlanError):
            sql_session.execute(mistyped)
