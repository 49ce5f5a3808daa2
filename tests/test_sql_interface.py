"""Tests for the SQL text interface: lexer, parser, binder, runner."""

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Warehouse
from repro.common.errors import PlanError
from repro.engine.planner import TableScan
from repro.sql import SqlSession
from repro.sql.ast_nodes import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
)
from repro.sql.lexer import SqlSyntaxError, tokenize
from repro.sql.parser import parse
from tests.conftest import small_config


@pytest.fixture
def sql():
    dw = Warehouse(config=small_config(), auto_optimize=False)
    session = SqlSession(dw.session())
    session.execute(
        "CREATE TABLE items (item_id bigint, label varchar, price double, "
        "day bigint) WITH (distribution = item_id, sort = item_id)"
    )
    session.execute(
        "INSERT INTO items (item_id, label, price, day) VALUES "
        "(1, 'alpha', 10.0, 728659), (2, 'beta', 20.0, 728659), "
        "(3, 'alpha', 30.0, 728660), (4, 'gamma', 40.0, 728661)"
    )
    return session


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("SELECT a1, 'it''s', 3.5 FROM t -- comment")
        kinds = [(t.kind, t.value) for t in tokens]
        assert ("keyword", "SELECT") in kinds
        assert ("ident", "a1") in kinds
        assert ("string", "it's") in kinds
        assert ("number", "3.5") in kinds
        assert kinds[-1][0] == "eof"

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].value == "SELECT"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize("SELECT 'oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("SELECT @")

    def test_multichar_operators(self):
        values = [t.value for t in tokenize("a <> b <= c >= d")]
        assert "<>" in values and "<=" in values and ">=" in values


class TestParser:
    def test_select_shape(self):
        stmt = parse(
            "SELECT a, SUM(b) AS total FROM t JOIN u ON x = y "
            "WHERE a > 1 AND b < 2 GROUP BY a HAVING SUM(b) > 0 "
            "ORDER BY total DESC LIMIT 5"
        )
        assert isinstance(stmt, SelectStatement)
        assert stmt.table == "t"
        assert stmt.joins[0].table == "u"
        assert [c.name for c in stmt.group_by] == ["a"]
        assert stmt.order_by == [("total", False)]
        assert stmt.limit == 5

    def test_insert_shape(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, InsertStatement)
        assert stmt.columns == ["a", "b"]
        assert stmt.rows == [[1, "x"], [2, "y"]]

    def test_insert_arity_mismatch(self):
        with pytest.raises(SqlSyntaxError, match="expected 2"):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_delete_update_shapes(self):
        assert isinstance(parse("DELETE FROM t WHERE a = 1"), DeleteStatement)
        stmt = parse("UPDATE t SET a = a + 1, b = 'x' WHERE a < 5")
        assert isinstance(stmt, UpdateStatement)
        assert [c for c, __ in stmt.assignments] == ["a", "b"]

    def test_negative_literals(self):
        stmt = parse("INSERT INTO t (a) VALUES (-5)")
        assert stmt.rows == [[-5]]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse("SELECT a FROM t extra garbage ;")

    def test_date_literal(self):
        import datetime
        stmt = parse("SELECT a FROM t WHERE d >= DATE '1994-01-01'")
        literal = stmt.where.right
        assert literal.value == datetime.date(1994, 1, 1).toordinal()

    def test_qualified_columns(self):
        stmt = parse("SELECT t.a FROM t JOIN u ON t.k = u.k")
        assert stmt.items[0].expr.qualifier == "t"

    def test_operator_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a + 1 * 2 = 3")
        # 1 * 2 binds tighter than +.
        comparison = stmt.where
        assert comparison.op == "=="
        assert comparison.left.op == "+"
        assert comparison.left.right.op == "*"


class TestRunner:
    def test_select_filter_order(self, sql):
        out = sql.execute(
            "SELECT item_id, price FROM items WHERE price > 15 ORDER BY price DESC"
        )
        assert out["item_id"].tolist() == [4, 3, 2]

    def test_select_star(self, sql):
        out = sql.execute("SELECT * FROM items ORDER BY item_id LIMIT 2")
        assert list(out) == ["item_id", "label", "price", "day"]
        assert len(out["item_id"]) == 2

    def test_aggregates(self, sql):
        out = sql.execute(
            "SELECT label, SUM(price) AS total, COUNT(*) AS n, AVG(price) AS avg_p "
            "FROM items GROUP BY label ORDER BY label"
        )
        assert out["label"].tolist() == ["alpha", "beta", "gamma"]
        assert out["total"].tolist() == [40.0, 20.0, 40.0]
        assert out["n"].tolist() == [2, 1, 1]

    def test_global_aggregate(self, sql):
        out = sql.execute("SELECT COUNT(*) AS n, MIN(price) AS lo FROM items")
        assert out["n"][0] == 4 and out["lo"][0] == 10.0

    def test_count_distinct(self, sql):
        out = sql.execute("SELECT COUNT(DISTINCT label) AS d FROM items")
        assert out["d"][0] == 3

    def test_having(self, sql):
        out = sql.execute(
            "SELECT label, SUM(price) AS total FROM items "
            "GROUP BY label HAVING SUM(price) > 25"
        )
        assert sorted(out["label"].tolist()) == ["alpha", "gamma"]

    def test_expression_over_aggregates(self, sql):
        out = sql.execute("SELECT SUM(price) / COUNT(*) AS mean FROM items")
        assert out["mean"][0] == pytest.approx(25.0)

    def test_like_in_between_not(self, sql):
        out = sql.execute("SELECT item_id FROM items WHERE label LIKE 'a%'")
        assert sorted(out["item_id"].tolist()) == [1, 3]
        out = sql.execute("SELECT item_id FROM items WHERE label IN ('beta', 'gamma')")
        assert sorted(out["item_id"].tolist()) == [2, 4]
        out = sql.execute("SELECT item_id FROM items WHERE price BETWEEN 15 AND 35")
        assert sorted(out["item_id"].tolist()) == [2, 3]
        out = sql.execute("SELECT item_id FROM items WHERE NOT label = 'alpha'")
        assert sorted(out["item_id"].tolist()) == [2, 4]

    def test_case_expression(self, sql):
        out = sql.execute(
            "SELECT item_id, CASE WHEN price >= 30 THEN 'high' ELSE 'low' END "
            "AS tier FROM items ORDER BY item_id"
        )
        assert out["tier"].tolist() == ["low", "low", "high", "high"]

    def test_join(self, sql):
        sql.execute("CREATE TABLE tags (tag_item bigint, tag varchar)")
        sql.execute(
            "INSERT INTO tags (tag_item, tag) VALUES (1, 'new'), (3, 'sale')"
        )
        out = sql.execute(
            "SELECT label, tag FROM items JOIN tags ON item_id = tag_item "
            "ORDER BY label"
        )
        assert out["tag"].tolist() == ["new", "sale"]
        assert out["label"].tolist() == ["alpha", "alpha"]

    def test_delete_and_update(self, sql):
        assert sql.execute("DELETE FROM items WHERE label = 'beta'") == 1
        assert sql.execute(
            "UPDATE items SET price = price + 1 WHERE item_id = 1"
        ) == 1
        out = sql.execute("SELECT SUM(price) AS s, COUNT(*) AS n FROM items")
        assert out["n"][0] == 3
        assert out["s"][0] == pytest.approx(11.0 + 30.0 + 40.0)

    def test_delete_without_where(self, sql):
        assert sql.execute("DELETE FROM items") == 4
        assert sql.execute("SELECT COUNT(*) AS n FROM items")["n"][0] == 0

    def test_transactions(self, sql):
        sql.execute("BEGIN")
        sql.execute(
            "INSERT INTO items (item_id, label, price, day) "
            "VALUES (9, 'tx', 1.0, 728662)"
        )
        assert sql.execute("SELECT COUNT(*) AS n FROM items")["n"][0] == 5
        sql.execute("ROLLBACK")
        assert sql.execute("SELECT COUNT(*) AS n FROM items")["n"][0] == 4
        sql.execute("BEGIN TRANSACTION")
        sql.execute("DELETE FROM items WHERE item_id = 1")
        sql.execute("COMMIT")
        assert sql.execute("SELECT COUNT(*) AS n FROM items")["n"][0] == 3

    def test_insert_requires_all_columns(self, sql):
        with pytest.raises(SqlSyntaxError, match="every column"):
            sql.execute("INSERT INTO items (item_id) VALUES (9)")

    def test_unknown_table(self, sql):
        from repro.common.errors import CatalogError
        with pytest.raises(CatalogError, match="unknown table"):
            sql.execute("SELECT a FROM ghost")

    def test_unknown_column(self, sql):
        with pytest.raises(SqlSyntaxError, match="unknown column"):
            sql.execute("SELECT ghost FROM items")

    def test_non_grouped_column_rejected(self, sql):
        with pytest.raises(SqlSyntaxError, match="GROUP BY"):
            sql.execute("SELECT label, price, COUNT(*) AS n FROM items GROUP BY label")

    def test_order_by_must_be_output(self, sql):
        with pytest.raises(SqlSyntaxError, match="select list"):
            sql.execute("SELECT label FROM items ORDER BY price")

    def test_create_with_options(self, sql):
        sql.execute(
            "CREATE TABLE opts (a bigint, b bigint, c varchar) "
            "WITH (distribution = a, sort = (a, b), unique = a)"
        )
        sql.execute("INSERT INTO opts (a, b, c) VALUES (1, 2, 'x')")
        from repro.fe.constraints import UniqueConstraintViolation
        with pytest.raises(UniqueConstraintViolation):
            sql.execute("INSERT INTO opts (a, b, c) VALUES (1, 3, 'y')")

    def test_year_function(self, sql):
        out = sql.execute(
            "SELECT item_id FROM items WHERE YEAR(day) = 1996"
        )
        assert len(out["item_id"]) == 4  # 728659.. are all in 1996

    def test_substring_function(self, sql):
        out = sql.execute(
            "SELECT SUBSTRING(label, 1, 2) AS pre FROM items ORDER BY pre"
        )
        assert out["pre"].tolist() == ["al", "al", "be", "ga"]

    def test_group_by_computed_column_rejected(self, sql):
        """Grouping is by base columns only; aliases are not group keys."""
        with pytest.raises(SqlSyntaxError):
            sql.execute(
                "SELECT SUBSTRING(label, 1, 2) AS pre, COUNT(*) AS n "
                "FROM items GROUP BY pre"
            )


class TestPushdown:
    def test_where_pushdown_prunes_files(self, sql):
        dw_store = sql.session._context.store
        # Sorted, range-partitioned inserts give tight file zone maps.
        for start in (100, 200, 300):
            values = ", ".join(
                f"({i}, 'bulk', 1.0, 728659)" for i in range(start, start + 20)
            )
            sql.execute(
                f"INSERT INTO items (item_id, label, price, day) VALUES {values}"
            )
        # Warm the snapshot cache so both measurements below count only
        # data-file IO, not the first query's manifest loads.
        sql.execute("SELECT item_id FROM items WHERE item_id >= 300")
        before = dw_store.meter.snapshot()
        out = sql.execute("SELECT item_id FROM items WHERE item_id >= 300")
        selective = dw_store.meter.delta(before).bytes_read
        before = dw_store.meter.snapshot()
        sql.execute("SELECT item_id FROM items WHERE price = 1.0")
        full = dw_store.meter.delta(before).bytes_read
        assert len(out["item_id"]) == 20
        assert selective < full


class TestTypeMismatch:
    """A string column compared with a number, or a number column with a
    string, is a ``PlanError`` naming both; the Python API's ``prune=``
    triples prune nothing on such a literal."""

    @pytest.mark.parametrize(
        "where, column, literal",
        [
            ("item_id = 'x'", "item_id", "'x'"),
            ("item_id < 'x'", "item_id", "'x'"),
            ("'x' > item_id", "item_id", "'x'"),
            ("label = 5", "label", "5"),
            ("label < 5", "label", "5"),
            ("5.5 <= label", "label", "5.5"),
            ("label BETWEEN 1 AND 2", "label", "1"),
        ],
    )
    def test_sql_comparison_is_a_plan_error(self, sql, where, column, literal):
        for statement in (
            f"SELECT item_id FROM items WHERE {where}",
            f"DELETE FROM items WHERE {where}",
            f"UPDATE items SET price = 0.0 WHERE {where}",
        ):
            with pytest.raises(PlanError) as caught:
                sql.execute(statement)
            assert repr(column) in str(caught.value)
            assert literal in str(caught.value)
        assert len(sql.execute("SELECT item_id FROM items")["item_id"]) == 4

    @pytest.mark.parametrize(
        "where, message",
        [
            ("item_id IN ('x')", "int64 column 'item_id' with literal 'x'"),
            ("item_id NOT IN (1, 'x')", "int64 column 'item_id' with literal 'x'"),
            ("label IN (1, 2)", "string column 'label' with literal 1"),
            ("label IN ('alpha', 2.5)", "string column 'label' with literal 2.5"),
        ],
    )
    def test_in_list_is_type_checked(self, sql, where, message):
        with pytest.raises(PlanError, match=message):
            sql.execute(f"SELECT item_id FROM items WHERE {where}")

    @pytest.mark.parametrize(
        "where",
        [
            "item_id + 1 = 'x'",
            "'x' < price * 2",
            "YEAR(day) = 'x'",
            "SUBSTRING(label, 1, 2) = 5",
            "label = item_id",
        ],
    )
    def test_expression_comparison_is_type_checked(self, sql, where):
        with pytest.raises(PlanError, match="cannot compare"):
            sql.execute(f"SELECT item_id FROM items WHERE {where}")

    def test_well_typed_expressions_still_bind(self, sql):
        out = sql.execute(
            "SELECT item_id FROM items WHERE item_id + 1 = 3 "
            "AND SUBSTRING(label, 1, 2) = 'be' AND label IN ('beta')"
        )
        assert out["item_id"].tolist() == [2]

    @pytest.mark.parametrize(
        "column, op, literal",
        [("item_id", "==", "x"), ("item_id", "<", "x"),
         ("label", "==", 5), ("label", "<", 5)],
    )
    def test_prune_triple_prunes_nothing(self, sql, column, op, literal):
        session = sql.session
        plan = TableScan("items", ("item_id",), prune=((column, op, literal),))
        assert sorted(session.query(plan)["item_id"]) == [1, 2, 3, 4]
        everything = BinOp(">", Col("item_id"), Lit(0))
        prune = ((column, op, literal),)
        assert session.update(
            "items", everything, {"price": Lit(1.0)}, prune=prune
        ) == 4
        assert session.delete("items", everything, prune=prune) == 4


class TestEmptyResultTypes:
    """A scan that matches nothing returns each column with its schema
    dtype, as a scan that matches one row does."""

    @pytest.mark.parametrize(
        "column, dtype", [("item_id", np.int64), ("label", object), ("price", np.float64)]
    )
    @pytest.mark.parametrize(
        "where",
        ["item_id = 5", "item_id = 1", "price > 100.0", "label = 'zeta'", "day < 0"],
    )
    def test_dtype_does_not_depend_on_matching(self, sql, column, dtype, where):
        out = sql.execute(f"SELECT {column} FROM items WHERE {where}")
        assert out[column].dtype == np.dtype(dtype)

    def test_an_empty_table_keeps_its_types(self, sql):
        sql.execute("DELETE FROM items WHERE item_id > 0")
        out = sql.execute("SELECT item_id, label FROM items")
        assert len(out["item_id"]) == 0
        assert out["item_id"].dtype == np.int64 and out["label"].dtype == object


class TestDistinct:
    def test_select_distinct_single(self, sql):
        out = sql.execute("SELECT DISTINCT label FROM items ORDER BY label")
        assert out["label"].tolist() == ["alpha", "beta", "gamma"]

    def test_select_distinct_multi(self, sql):
        sql.execute(
            "INSERT INTO items (item_id, label, price, day) VALUES "
            "(5, 'alpha', 10.0, 728659)"
        )
        out = sql.execute("SELECT DISTINCT label, price FROM items ORDER BY label, price")
        pairs = list(zip(out["label"].tolist(), out["price"].tolist()))
        assert pairs == [
            ("alpha", 10.0), ("alpha", 30.0), ("beta", 20.0), ("gamma", 40.0)
        ]
