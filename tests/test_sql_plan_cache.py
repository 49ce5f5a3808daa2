"""The plan cache: a SELECT's bound plan, reused by its literal variants.

The oracle is always a fresh compile.  Every plan the cache serves must
``==`` the plan ``Binder.bind_select`` builds from the same text at that
moment, and the rows of a hit must equal the rows of the same statement
compiled with the cache cleared.  The remaining cases pin what must miss
(catalog changes, recovery, literal shapes the cache cannot substitute)
and what a hit must keep doing (the optimizer rewrite, index probes,
serializable read tracking).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PolarisConfig, Schema, SqlSession, Warehouse
from repro.chaos.recovery import RecoveryManager
from repro.common.errors import SerializationError
from repro.engine.expressions import BinOp, Col, Lit
from repro.engine.planner import TableScan
from repro.sql import plan_cache
from repro.sql.binder import Binder
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.sql.plan_cache import PlanCache, Shape
from repro.sqldb import system_tables
from repro.telemetry.metrics import MetricsRegistry
from tests.conftest import assert_identical, small_config

CUSTOMERS = 100
ORDERS = 400
ACCOUNTS = 200
GROUPS = 8
FIRST_DAY = 9000
DAYS = 600

#: ``sql_point_lookup``'s four statement shapes.
CUSTOMER_BY_KEY = "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = {}"
LINES_BY_ORDER = (
    "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem WHERE l_orderkey = {}"
)
ORDERS_OF_CUSTOMER = (
    "SELECT o_orderkey, o_totalprice FROM orders "
    "JOIN customer ON o_custkey = c_custkey WHERE c_custkey = {}"
)
SHIP_RANGE = (
    "SELECT l_orderkey, l_shipdate FROM lineitem "
    "WHERE l_shipdate >= {} AND l_shipdate < {}"
)
#: ``txn_contention``'s in-transaction SELECT.
GROUP_TOTALS = "SELECT COUNT(*) AS n, SUM(bal) AS s FROM acct WHERE grp = {}"


def _load(dw: Warehouse) -> None:
    """Four small tables, each in several files so zone maps and indexes
    have something to prune; every table analyzed, four indexes built."""
    session = dw.session()
    session.create_table(
        "customer",
        Schema.of(("c_custkey", "int64"), ("c_name", "string"), ("c_acctbal", "float64")),
        distribution_column="c_custkey",
    )
    session.create_table(
        "orders",
        Schema.of(("o_orderkey", "int64"), ("o_custkey", "int64"), ("o_totalprice", "float64")),
        distribution_column="o_orderkey",
    )
    session.create_table(
        "lineitem",
        Schema.of(
            ("l_orderkey", "int64"),
            ("l_linenumber", "int64"),
            ("l_quantity", "float64"),
            ("l_shipdate", "int64"),
        ),
        distribution_column="l_orderkey",
    )
    session.create_table(
        "acct",
        Schema.of(("id", "int64"), ("bal", "float64"), ("grp", "int64")),
        distribution_column="id",
    )
    custkeys = np.arange(1, CUSTOMERS + 1, dtype=np.int64)
    for part in np.array_split(custkeys, 4):
        session.insert("customer", {
            "c_custkey": part,
            "c_name": np.array([f"Customer#{k:09d}" for k in part], dtype=object),
            "c_acctbal": part * 1.5 - 20.0,
        })
    orderkeys = np.arange(1, ORDERS + 1, dtype=np.int64)
    order_custkeys = (orderkeys * 7) % CUSTOMERS + 1
    by_customer = np.argsort(order_custkeys, kind="stable")
    for part in np.array_split(by_customer, 4):
        session.insert("orders", {
            "o_orderkey": orderkeys[part],
            "o_custkey": order_custkeys[part],
            "o_totalprice": orderkeys[part] * 2.25,
        })
    lines = np.repeat(orderkeys, 1 + orderkeys % 3)
    numbers = np.concatenate([np.arange(1, 2 + k % 3) for k in orderkeys])
    shipdates = FIRST_DAY + (lines * 37 + numbers) % DAYS
    by_date = np.argsort(shipdates, kind="stable")
    for part in np.array_split(by_date, 4):
        session.insert("lineitem", {
            "l_orderkey": lines[part],
            "l_linenumber": numbers[part].astype(np.int64),
            "l_quantity": (numbers[part] * 3.0),
            "l_shipdate": shipdates[part].astype(np.int64),
        })
    ids = np.arange(ACCOUNTS, dtype=np.int64)
    for part in np.array_split(ids, 2):
        session.insert("acct", {"id": part, "bal": part + 10.0, "grp": part % GROUPS})
    for table in ("customer", "orders", "lineitem", "acct"):
        session.analyze_table(table)
    session.create_index("customer", "idx_customer_custkey", "c_custkey")
    session.create_index("orders", "idx_orders_orderkey", "o_orderkey")
    session.create_index("orders", "idx_orders_custkey", "o_custkey")
    session.create_index("lineitem", "idx_lineitem_orderkey", "l_orderkey")


def _warehouse() -> Warehouse:
    dw = Warehouse(config=small_config(), auto_optimize=False)
    _load(dw)
    return dw


@pytest.fixture(scope="module")
def loaded():
    """One loaded warehouse the read-only cases share."""
    return _warehouse()


@pytest.fixture
def fresh_dw():
    """A loaded warehouse of its own, for cases that change the catalog."""
    return _warehouse()


def run(sql: SqlSession, text: str):
    """``(result, plan the cache served or None)`` of one statement."""
    cache = sql.session._context.plan_cache
    served = []
    real_get = cache.get

    def spy(shape, tables_seq):
        plan = real_get(shape, tables_seq)
        served.append(plan)
        return plan

    cache.get = spy
    try:
        result = sql.execute(text)
    finally:
        del cache.get
    return result, (served[0] if served else None)


def bound(sql: SqlSession, text: str):
    """The plan a fresh parse and bind of ``text`` produces now."""
    statement = parse(text)
    tables = [statement.table] + [join.table for join in statement.joins]
    return Binder(sql._schemas_for(tables)).bind_select(statement)


def check_against_compile(sql: SqlSession, text: str):
    """Run ``text``; a served plan must equal a fresh bind, and the rows
    must equal those of a compile with the cache cleared.  Returns the
    served plan (None on a miss)."""
    result, served = run(sql, text)
    if served is not None:
        assert served == bound(sql, text), text
    sql.session._context.plan_cache.clear()
    assert_identical(result, sql.execute(text))
    return served


def cacheable(text: str) -> bool:
    return Shape.of(tokenize(text)).cacheable


def same_key(first: str, second: str) -> bool:
    return Shape.of(tokenize(first)).key == Shape.of(tokenize(second)).key


def _quoted(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


# -- literal variants -----------------------------------------------------------

keys = st.integers(1, CUSTOMERS + 5)
days = st.integers(FIRST_DAY - 5, FIRST_DAY + DAYS + 5)
names = st.one_of(
    st.integers(1, CUSTOMERS).map(lambda k: f"Customer#{k:09d}"),
    st.text(alphabet="ab' #0", max_size=6),
)

#: name -> (template, strategy of its literal tuple, whether a variant of
#: a cacheable text hits).  LIMIT and IN lists keep raw literals the cache
#: cannot substitute, so they always compile.
SHAPES = {
    "customer_by_key": (CUSTOMER_BY_KEY, st.tuples(keys), True),
    "lines_by_order": (LINES_BY_ORDER, st.tuples(st.integers(1, ORDERS + 5)), True),
    "orders_of_customer": (ORDERS_OF_CUSTOMER, st.tuples(keys), True),
    "ship_range": (SHIP_RANGE, st.tuples(days, days), True),
    "group_totals": (GROUP_TOTALS, st.tuples(st.integers(0, GROUPS)), True),
    "between": (
        "SELECT l_orderkey, l_shipdate FROM lineitem "
        "WHERE l_shipdate BETWEEN {} AND {}",
        st.tuples(days, days),
        True,
    ),
    "string": (
        "SELECT c_custkey, c_acctbal FROM customer WHERE c_name = {}",
        st.tuples(names.map(_quoted)),
        True,
    ),
    "float": (
        "SELECT c_custkey FROM customer WHERE c_acctbal >= {} AND c_custkey < {}",
        st.tuples(
            st.floats(-30.0, 160.0).map(lambda x: f"{x:.2f}"),
            keys,
        ),
        True,
    ),
    "negative": (
        "SELECT id, bal FROM acct WHERE bal > -{} AND id < {}",
        st.tuples(st.integers(0, 20), st.integers(0, ACCOUNTS)),
        True,
    ),
    "limit": (
        "SELECT id, bal FROM acct WHERE grp = {} ORDER BY id LIMIT {}",
        st.tuples(st.integers(0, GROUPS), st.integers(1, 30)),
        False,
    ),
    "in_list": (
        "SELECT id, bal FROM acct WHERE id IN ({})",
        st.tuples(
            st.lists(st.integers(0, ACCOUNTS), min_size=1, max_size=4).map(
                lambda values: ", ".join(map(str, values))
            )
        ),
        False,
    ),
}


class TestOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(SHAPES)),
        data=st.data(),
    )
    def test_hit_equals_a_fresh_compile(self, loaded, name, data):
        template, literals, substitutable = SHAPES[name]
        sql = SqlSession(loaded.session())
        first = template.format(*data.draw(literals, label="first"))
        second = template.format(*data.draw(literals, label="second"))
        sql.session._context.plan_cache.clear()
        assert check_against_compile(sql, first) is None
        # The compile above cached ``first`` (if it could); ``second``
        # is a literal variant of it.
        served = check_against_compile(sql, second)
        expect_hit = (
            substitutable
            and same_key(first, second)
            and cacheable(first)
            and cacheable(second)
        )
        assert (served is not None) == expect_hit, (first, second)

    def test_workload_shapes_hit(self, loaded):
        """Each point-lookup shape hits on its second variant, and the hit
        is counted."""
        sql = SqlSession(loaded.session())
        cache = sql.session._context.plan_cache
        cache.clear()
        before = (cache.hits.value, cache.misses.value)
        for template, literals in (
            (CUSTOMER_BY_KEY, [(3,), (4,)]),
            (LINES_BY_ORDER, [(10,), (11,)]),
            (ORDERS_OF_CUSTOMER, [(5,), (6,)]),
            (SHIP_RANGE, [(9100, 9102), (9300, 9302)]),
            (GROUP_TOTALS, [(1,), (2,)]),
        ):
            assert run(sql, template.format(*literals[0]))[1] is None
            assert run(sql, template.format(*literals[1]))[1] is not None
        assert (cache.hits.value, cache.misses.value) == (
            before[0] + 5,
            before[1] + 5,
        )

    def test_join_hit_keeps_its_rows(self, loaded):
        sql = SqlSession(loaded.session())
        sql.execute(ORDERS_OF_CUSTOMER.format(1))
        for key in range(2, 12):
            assert check_against_compile(sql, ORDERS_OF_CUSTOMER.format(key)) is not None
            sql.execute(ORDERS_OF_CUSTOMER.format(key))  # re-warm after clear


class TestAlwaysCompiles:
    def test_equal_literals_are_never_cached(self, loaded):
        sql = SqlSession(loaded.session())
        cache = sql.session._context.plan_cache
        cache.clear()
        text = SHIP_RANGE.format(9200, 9200)
        assert not cacheable(text)
        assert run(sql, text)[1] is None
        assert run(sql, text)[1] is None
        assert len(cache) == 0
        # A distinct-literal variant does not pick up anything either.
        assert run(sql, SHIP_RANGE.format(9200, 9210))[1] is None

    def test_int_and_float_literals_key_apart(self, loaded):
        sql = SqlSession(loaded.session())
        sql.session._context.plan_cache.clear()
        assert run(sql, CUSTOMER_BY_KEY.format(5))[1] is None
        assert run(sql, CUSTOMER_BY_KEY.format("5.0"))[1] is None
        assert run(sql, CUSTOMER_BY_KEY.format(6))[1] is not None
        # The binder lowers a float against the int64 key to an integer,
        # which is no slot of the float token: such a statement compiles
        # every time (float columns cache floats: SHAPES["float"]).
        assert run(sql, CUSTOMER_BY_KEY.format("6.0"))[1] is None
        assert check_against_compile(sql, CUSTOMER_BY_KEY.format("7.0")) is None

    def test_in_lists_of_other_arity_miss(self, loaded):
        sql = SqlSession(loaded.session())
        sql.session._context.plan_cache.clear()
        text = "SELECT id FROM acct WHERE id IN ({})"
        assert run(sql, text.format("1, 2"))[1] is None
        assert run(sql, text.format("1, 2, 3"))[1] is None
        assert run(sql, text.format("4, 5"))[1] is None

    def test_unary_minus_zero_is_not_cached(self, loaded):
        """``-bal`` binds as ``0 - bal``: a literal 0 beside it is
        ambiguous.  (``-5`` is folded into one literal, so it is not.)"""
        sql = SqlSession(loaded.session())
        sql.session._context.plan_cache.clear()
        assert cacheable("SELECT id FROM acct WHERE bal > -5 AND id < 0")
        text = "SELECT id FROM acct WHERE -bal < {} AND id < {}"
        assert not cacheable(text.format(5, 0))
        sql.execute(text.format(5, 7))
        assert check_against_compile(sql, text.format(5, 0)) is None
        sql.execute(text.format(5, 7))
        assert check_against_compile(sql, text.format(0, 9)) is None

    def test_explain_and_system_views_are_not_cached(self, loaded):
        sql = SqlSession(loaded.session())
        cache = sql.session._context.plan_cache
        cache.clear()
        sql.execute("EXPLAIN " + CUSTOMER_BY_KEY.format(3))
        sql.execute("SELECT name FROM sys.dm_metrics WHERE value > 1")
        sql.execute("SELECT name FROM sys.dm_metrics WHERE value > 2")
        assert len(cache) == 0

    def test_non_select_statements_skip_the_cache(self, fresh_dw):
        sql = SqlSession(fresh_dw.session())
        cache = sql.session._context.plan_cache
        before = (cache.hits.value, cache.misses.value)
        sql.execute("INSERT INTO acct (id, bal, grp) VALUES (900, 1.0, 1)")
        sql.execute("UPDATE acct SET bal = bal + 1.0 WHERE id = 900")
        sql.execute("DELETE FROM acct WHERE id = 900")
        assert (cache.hits.value, cache.misses.value) == before


class TestValidity:
    def test_create_table_between_runs_misses(self, fresh_dw):
        sql = SqlSession(fresh_dw.session())
        sql.execute(CUSTOMER_BY_KEY.format(3))
        assert run(sql, CUSTOMER_BY_KEY.format(4))[1] is not None
        sql.execute("CREATE TABLE other (id BIGINT)")
        assert run(sql, CUSTOMER_BY_KEY.format(5))[1] is None
        assert run(sql, CUSTOMER_BY_KEY.format(6))[1] is not None

    def test_drop_and_recreate_same_name_misses(self, fresh_dw):
        sql = SqlSession(fresh_dw.session())
        sql.execute("CREATE TABLE tmp (id BIGINT, v DOUBLE)")
        sql.execute("INSERT INTO tmp (id, v) VALUES (1, 1.5), (2, 2.5)")
        text = "SELECT * FROM tmp WHERE id = {}"
        sql.execute(text.format(1))
        assert run(sql, text.format(2))[1] is not None
        txn = fresh_dw.context.sqldb.begin()
        row = system_tables.find_table_by_name(txn, "tmp")
        system_tables.drop_table(txn, row["table_id"])
        txn.commit()
        sql.execute("CREATE TABLE tmp (id BIGINT, w BIGINT, v DOUBLE)")
        sql.execute("INSERT INTO tmp (id, w, v) VALUES (1, 7, 1.5), (2, 8, 2.5)")
        result, served = run(sql, text.format(2))
        assert served is None
        assert list(result) == ["id", "w", "v"]
        assert result["w"].tolist() == [8]

    def test_analyze_between_runs_changes_the_rewrite_on_a_hit(self):
        dw = Warehouse(config=small_config(), auto_optimize=False)
        _load_unanalyzed(dw)
        sql = SqlSession(dw.session())
        rewritten = _spy_rewrites(dw)
        sql.execute(ORDERS_OF_CUSTOMER.format(3))
        assert run(sql, ORDERS_OF_CUSTOMER.format(4))[1] is not None
        before = rewritten[-1]
        sql.execute("ANALYZE orders")
        sql.execute("ANALYZE customer")
        result, served = run(sql, ORDERS_OF_CUSTOMER.format(4))
        assert served is not None
        assert rewritten[-1] != before
        sql.session._context.plan_cache.clear()
        assert_identical(result, sql.execute(ORDERS_OF_CUSTOMER.format(4)))

    def test_create_index_between_runs_is_probed_on_a_hit(self):
        dw = Warehouse(config=small_config(), auto_optimize=False)
        _load_unanalyzed(dw)
        sql = SqlSession(dw.session())
        sql.execute("ANALYZE orders")
        text = "SELECT o_orderkey FROM orders WHERE o_custkey = {}"
        sql.execute(text.format(3))
        sql.execute("CREATE INDEX idx_o_custkey ON orders (o_custkey)")
        table_id = _table_id(dw, "orders")
        optimizer = dw.context.optimizer
        assert optimizer.index_usage(table_id, "idx_o_custkey")["lookups"] == 0
        result, served = run(sql, text.format(4))
        assert served is not None
        assert optimizer.index_usage(table_id, "idx_o_custkey")["lookups"] == 1
        sql.session._context.plan_cache.clear()
        assert_identical(result, sql.execute(text.format(4)))

    def test_plan_cached_before_recover_is_not_reused(self, fresh_dw):
        sql = SqlSession(fresh_dw.session())
        sql.execute(CUSTOMER_BY_KEY.format(3))
        assert run(sql, CUSTOMER_BY_KEY.format(4))[1] is not None
        RecoveryManager(fresh_dw.context, sto=fresh_dw.sto).recover()
        assert len(fresh_dw.context.plan_cache) == 0
        assert check_against_compile(sql, CUSTOMER_BY_KEY.format(5)) is None


class TestTransactions:
    def test_serializable_reader_still_aborts_after_a_hit(self, fresh_dw, si_sanitizer):
        si_sanitizer(fresh_dw)
        reader = SqlSession(fresh_dw.session())
        writer = SqlSession(fresh_dw.session())
        reader.execute(GROUP_TOTALS.format(1))  # caches the shape
        reader.session.begin(isolation="serializable")
        _, served = run(reader, GROUP_TOTALS.format(2))
        assert served is not None
        writer.execute("INSERT INTO acct (id, bal, grp) VALUES (500, 1.0, 2)")
        reader.execute("INSERT INTO acct (id, bal, grp) VALUES (501, 1.0, 3)")
        with pytest.raises(SerializationError):
            reader.execute("COMMIT")

    def test_interleaved_transactions_with_hits(self, fresh_dw, si_sanitizer):
        """txn_contention's pattern over two sessions: a hit inside a
        snapshot transaction sees that snapshot, and the history stays
        snapshot-isolated."""
        si_sanitizer(fresh_dw)
        a = SqlSession(fresh_dw.session())
        b = SqlSession(fresh_dw.session())
        a.execute(GROUP_TOTALS.format(0))
        a.execute("BEGIN")
        b.execute("BEGIN")
        first, served = run(a, GROUP_TOTALS.format(1))
        assert served is not None
        b.execute("INSERT INTO acct (id, bal, grp) VALUES (600, 5.0, 1)")
        b.execute("COMMIT")
        again, served = run(a, GROUP_TOTALS.format(1))
        assert served is not None
        assert_identical(again, first)  # a's snapshot predates b's commit
        a.execute("UPDATE acct SET bal = bal + 1.0 WHERE id = 9")
        a.execute("COMMIT")
        after, served = run(a, GROUP_TOTALS.format(1))
        assert served is not None
        assert int(after["n"][0]) == int(first["n"][0]) + 1


class TestPlanCacheUnit:
    @staticmethod
    def _lookup(value):
        text = f"SELECT id FROM t WHERE id = {value}"
        plan = TableScan(
            "t",
            ("id",),
            predicate=BinOp("==", Col("id"), Lit(value)),
            prune=(("id", "==", value),),
        )
        return Shape.of(tokenize(text)), plan

    def test_substitutes_lit_and_prune(self):
        cache = PlanCache(MetricsRegistry())
        shape, plan = self._lookup(5)
        cache.put(shape, 1, plan)
        variant, expected = self._lookup(9)
        assert cache.get(variant, 1) == expected

    def test_other_tables_seq_misses(self):
        cache = PlanCache(MetricsRegistry())
        shape, plan = self._lookup(5)
        cache.put(shape, 1, plan)
        assert cache.get(self._lookup(9)[0], 2) is None

    def test_lru_keeps_capacity_entries(self, monkeypatch):
        assert plan_cache.CAPACITY == 256
        monkeypatch.setattr(plan_cache, "CAPACITY", 2)
        cache = PlanCache(MetricsRegistry())
        shapes = []
        for column in ("a", "b", "c"):
            text = f"SELECT {column} FROM t WHERE {column} = 1"
            plan = TableScan(
                "t", (column,), predicate=BinOp("==", Col(column), Lit(1))
            )
            shape = Shape.of(tokenize(text))
            cache.put(shape, 0, plan)
            shapes.append(shape)
        assert len(cache) == 2
        assert cache.get(shapes[0], 0) is None
        assert cache.get(shapes[2], 0) is not None

    def test_counts_hits_and_misses_as_metrics(self):
        dw = Warehouse(config=PolarisConfig(), auto_optimize=False)
        sql = SqlSession(dw.session())
        sql.execute("CREATE TABLE t (id BIGINT)")
        sql.execute("INSERT INTO t (id) VALUES (1), (2)")
        for key in (1, 2, 3):
            sql.execute(f"SELECT id FROM t WHERE id = {key}")
        metrics = dw.context.telemetry.metrics
        assert metrics.value("sql.plan_cache.misses") == 1
        assert metrics.value("sql.plan_cache.hits") == 2


def _load_unanalyzed(dw: Warehouse) -> None:
    """``orders`` and ``customer`` without statistics or indexes."""
    session = dw.session()
    session.create_table(
        "customer",
        Schema.of(("c_custkey", "int64"), ("c_name", "string"), ("c_acctbal", "float64")),
        distribution_column="c_custkey",
    )
    session.create_table(
        "orders",
        Schema.of(("o_orderkey", "int64"), ("o_custkey", "int64"), ("o_totalprice", "float64")),
        distribution_column="o_orderkey",
    )
    custkeys = np.arange(1, CUSTOMERS + 1, dtype=np.int64)
    session.insert("customer", {
        "c_custkey": custkeys,
        "c_name": np.array([f"Customer#{k:09d}" for k in custkeys], dtype=object),
        "c_acctbal": custkeys * 1.5,
    })
    orderkeys = np.arange(1, ORDERS + 1, dtype=np.int64)
    custkey_of = (orderkeys * 7) % CUSTOMERS + 1
    for part in np.array_split(np.argsort(custkey_of, kind="stable"), 4):
        session.insert("orders", {
            "o_orderkey": orderkeys[part],
            "o_custkey": custkey_of[part],
            "o_totalprice": orderkeys[part] * 2.0,
        })


def _spy_rewrites(dw: Warehouse) -> list:
    """Record every plan the optimizer's rewrite returns."""
    optimizer = dw.context.optimizer
    real = optimizer.rewrite
    out = []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        out.append(result[0])
        return result

    optimizer.rewrite = spy
    return out


def _table_id(dw: Warehouse, name: str) -> int:
    txn = dw.context.sqldb.begin()
    try:
        return system_tables.find_table_by_name(txn, name)["table_id"]
    finally:
        txn.abort()
