"""Recursive-descent parser for the SQL dialect."""

from __future__ import annotations

import datetime
from typing import Any, List, Optional, Tuple

from repro.sql.ast_nodes import (
    AnalyzeStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    InsertStatement,
    JoinSpec,
    SBetween,
    SBin,
    SBool,
    SCase,
    SColumn,
    SFunc,
    SIn,
    SLike,
    SLiteral,
    SNot,
    SelectItem,
    SelectStatement,
    Statement,
    TransactionStatement,
    UpdateStatement,
)
from repro.sql.lexer import SqlSyntaxError, Token, tokenize

_AGGREGATES = {"SUM", "MIN", "MAX", "AVG", "COUNT"}
_SCALAR_FUNCS = {"YEAR", "SUBSTRING"}
_COMPARISONS = {"=": "==", "<>": "!=", "!=": "!=", "<": "<", "<=": "<=",
                ">": ">", ">=": ">="}


def parse(text: str, tokens: Optional[List[Token]] = None) -> Statement:
    """Parse one SQL statement; raises :class:`SqlSyntaxError`.

    ``tokens`` is ``tokenize(text)`` when the caller already lexed it, so
    a statement is lexed once however many consumers read its tokens.
    """
    return _Parser(tokenize(text) if tokens is None else tokens).parse_statement()


def literal_of(token: Token) -> Any:
    """The constant a ``number`` or ``string`` token denotes: an int, a
    float when the number has a decimal point, or the string itself."""
    if token.kind == "string":
        return token.value
    return float(token.value) if "." in token.value else int(token.value)


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "keyword" and token.value in words

    def _accept_keyword(self, *words: str) -> Optional[str]:
        if self._at_keyword(*words):
            return self._next().value
        return None

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise SqlSyntaxError(
                f"expected {word}, found {self._peek().value!r} "
                f"at offset {self._peek().position}"
            )

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind == "op" and token.value == op:
            self._next()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise SqlSyntaxError(
                f"expected {op!r}, found {self._peek().value!r} "
                f"at offset {self._peek().position}"
            )

    def _expect_ident(self) -> str:
        token = self._next()
        if token.kind not in ("ident", "keyword"):
            raise SqlSyntaxError(
                f"expected identifier, found {token.value!r} at offset "
                f"{token.position}"
            )
        return token.value

    def _table_name(self) -> str:
        """A possibly dotted table name (``t``, ``sys.dm_transactions``)."""
        name = self._expect_ident()
        while self._accept_op("."):
            name += "." + self._expect_ident()
        return name

    def _expect_end(self) -> None:
        self._accept_op(";")  # an optional statement terminator
        if self._peek().kind != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input at offset {self._peek().position}: "
                f"{self._peek().value!r}"
            )

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> Statement:
        """Dispatch on the leading keyword."""
        if self._at_keyword("SELECT"):
            statement = self._select()
        elif self._at_keyword("INSERT"):
            statement = self._insert()
        elif self._at_keyword("DELETE"):
            statement = self._delete()
        elif self._at_keyword("UPDATE"):
            statement = self._update()
        elif self._at_keyword("CREATE"):
            statement = self._create()
        elif self._at_keyword("ANALYZE"):
            statement = self._analyze()
        elif self._accept_keyword("BEGIN"):
            self._accept_keyword("TRANSACTION")
            statement = TransactionStatement("begin")
        elif self._accept_keyword("COMMIT"):
            statement = TransactionStatement("commit")
        elif self._accept_keyword("ROLLBACK"):
            statement = TransactionStatement("rollback")
        else:
            raise SqlSyntaxError(
                f"cannot parse statement starting with {self._peek().value!r}"
            )
        self._expect_end()
        return statement

    def _select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        table = self._table_name()
        joins: List[JoinSpec] = []
        while self._at_keyword("JOIN", "INNER"):
            self._accept_keyword("INNER")
            self._expect_keyword("JOIN")
            joins.append(self._join_spec())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expr()
        group_by: List[SColumn] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column_ref())
            while self._accept_op(","):
                group_by.append(self._column_ref())
        having = None
        if self._accept_keyword("HAVING"):
            having = self._expr()
        order_by: List[Tuple[str, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_key())
            while self._accept_op(","):
                order_by.append(self._order_key())
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._next()
            if token.kind != "number":
                raise SqlSyntaxError(f"LIMIT needs a number, got {token.value!r}")
            limit = int(token.value)
        return SelectStatement(
            items=items, table=table, joins=joins, where=where,
            group_by=group_by, having=having, order_by=order_by, limit=limit,
            distinct=distinct,
        )

    def _select_item(self) -> SelectItem:
        if self._accept_op("*"):
            return SelectItem(expr=SColumn("*"))
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._next().value
        return SelectItem(expr=expr, alias=alias)

    def _join_spec(self) -> JoinSpec:
        table = self._table_name()
        self._expect_keyword("ON")
        left_keys: List[SColumn] = []
        right_keys: List[SColumn] = []
        while True:
            a = self._column_ref()
            self._expect_op("=")
            b = self._column_ref()
            left_keys.append(a)
            right_keys.append(b)
            if not self._accept_keyword("AND"):
                break
        return JoinSpec(
            table=table, left_keys=tuple(left_keys), right_keys=tuple(right_keys)
        )

    def _order_key(self) -> Tuple[str, bool]:
        name = self._expect_ident()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return name, ascending

    def _insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._table_name()
        self._expect_op("(")
        columns = [self._expect_ident()]
        while self._accept_op(","):
            columns.append(self._expect_ident())
        self._expect_op(")")
        self._expect_keyword("VALUES")
        rows = [self._value_row(len(columns))]
        while self._accept_op(","):
            rows.append(self._value_row(len(columns)))
        return InsertStatement(table=table, columns=columns, rows=rows)

    def _value_row(self, arity: int) -> List[Any]:
        self._expect_op("(")
        values = [self._literal_value()]
        while self._accept_op(","):
            values.append(self._literal_value())
        self._expect_op(")")
        if len(values) != arity:
            raise SqlSyntaxError(
                f"VALUES row has {len(values)} values, expected {arity}"
            )
        return values

    def _delete(self) -> DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._table_name()
        where = self._expr() if self._accept_keyword("WHERE") else None
        return DeleteStatement(table=table, where=where)

    def _update(self) -> UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._table_name()
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_op(","):
            assignments.append(self._assignment())
        where = self._expr() if self._accept_keyword("WHERE") else None
        return UpdateStatement(table=table, assignments=assignments, where=where)

    def _assignment(self) -> Tuple[str, Any]:
        column = self._expect_ident()
        self._expect_op("=")
        return column, self._expr()

    def _create(self) -> Statement:
        """CREATE TABLE ... or CREATE INDEX name ON table (column)."""
        following = self._tokens[self._pos + 1]
        if following.kind == "keyword" and following.value == "INDEX":
            return self._create_index()
        return self._create_table()

    def _create_index(self) -> CreateIndexStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("INDEX")
        index_name = self._expect_ident()
        self._expect_keyword("ON")
        table = self._table_name()
        self._expect_op("(")
        column = self._expect_ident()
        self._expect_op(")")
        return CreateIndexStatement(
            index_name=index_name, table=table, column=column
        )

    def _analyze(self) -> AnalyzeStatement:
        self._expect_keyword("ANALYZE")
        self._accept_keyword("TABLE")
        return AnalyzeStatement(table=self._table_name())

    def _create_table(self) -> CreateTableStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        table = self._table_name()
        self._expect_op("(")
        columns = [self._column_def()]
        while self._accept_op(","):
            columns.append(self._column_def())
        self._expect_op(")")
        options = {}
        if self._accept_keyword("WITH"):
            self._expect_op("(")
            while True:
                key = self._expect_ident().lower()
                self._expect_op("=")
                options[key] = self._option_value()
                if not self._accept_op(","):
                    break
            self._expect_op(")")
        return CreateTableStatement(table=table, columns=columns, options=options)

    def _column_def(self) -> Tuple[str, str]:
        name = self._expect_ident()
        type_name = self._expect_ident().lower()
        aliases = {"bigint": "int64", "int": "int64", "double": "float64",
                   "float": "float64", "varchar": "string", "text": "string",
                   "boolean": "bool"}
        return name, aliases.get(type_name, type_name)

    def _option_value(self):
        if self._accept_op("("):
            values = [self._expect_ident()]
            while self._accept_op(","):
                values.append(self._expect_ident())
            self._expect_op(")")
            return values
        return self._expect_ident()

    # -- expressions (precedence climbing) --------------------------------------

    def _expr(self):
        return self._or_expr()

    def _or_expr(self):
        parts = [self._and_expr()]
        while self._accept_keyword("OR"):
            parts.append(self._and_expr())
        return parts[0] if len(parts) == 1 else SBool("or", tuple(parts))

    def _and_expr(self):
        parts = [self._not_expr()]
        while self._accept_keyword("AND"):
            parts.append(self._not_expr())
        return parts[0] if len(parts) == 1 else SBool("and", tuple(parts))

    def _not_expr(self):
        if self._accept_keyword("NOT"):
            return SNot(self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        token = self._peek()
        if token.kind == "op" and token.value in _COMPARISONS:
            op = _COMPARISONS[self._next().value]
            return SBin(op, left, self._additive())
        negated = bool(self._accept_keyword("NOT"))
        if self._accept_keyword("LIKE"):
            pattern = self._next()
            if pattern.kind != "string":
                raise SqlSyntaxError("LIKE needs a string pattern")
            return SLike(left, pattern.value, negated=negated)
        if self._accept_keyword("IN"):
            self._expect_op("(")
            values = [self._literal_value()]
            while self._accept_op(","):
                values.append(self._literal_value())
            self._expect_op(")")
            return SIn(left, tuple(values), negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            between = SBetween(left, low, high)
            return SNot(between) if negated else between
        if negated:
            raise SqlSyntaxError("dangling NOT")
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            if self._accept_op("+"):
                left = SBin("+", left, self._multiplicative())
            elif self._accept_op("-"):
                left = SBin("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            if self._accept_op("*"):
                left = SBin("*", left, self._unary())
            elif self._accept_op("/"):
                left = SBin("/", left, self._unary())
            else:
                return left

    def _unary(self):
        if self._accept_op("-"):
            return SBin("-", SLiteral(0), self._unary())
        return self._primary()

    def _primary(self):
        token = self._peek()
        if token.kind in ("number", "string"):
            self._next()
            return SLiteral(literal_of(token))
        if self._accept_keyword("TRUE"):
            return SLiteral(True)
        if self._accept_keyword("FALSE"):
            return SLiteral(False)
        if self._accept_keyword("DATE"):
            literal = self._next()
            if literal.kind != "string":
                raise SqlSyntaxError("DATE needs a 'YYYY-MM-DD' string")
            year, month, day = (int(p) for p in literal.value.split("-"))
            return SLiteral(datetime.date(year, month, day).toordinal())
        if self._accept_keyword("CASE"):
            self._expect_keyword("WHEN")
            cond = self._expr()
            self._expect_keyword("THEN")
            then = self._expr()
            self._expect_keyword("ELSE")
            orelse = self._expr()
            self._expect_keyword("END")
            return SCase(cond, then, orelse)
        if token.kind == "keyword" and token.value in _AGGREGATES | _SCALAR_FUNCS:
            return self._function()
        if self._accept_op("("):
            inner = self._expr()
            self._expect_op(")")
            return inner
        if token.kind == "ident":
            return self._column_ref()
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )

    def _function(self):
        name = self._next().value
        self._expect_op("(")
        if name == "COUNT" and self._accept_op("*"):
            self._expect_op(")")
            return SFunc(name="COUNT", args=(), star=True)
        distinct = bool(self._accept_keyword("DISTINCT"))
        args = [self._expr()]
        while self._accept_op(","):
            args.append(self._expr())
        self._expect_op(")")
        return SFunc(name=name, args=tuple(args), distinct=distinct)

    def _column_ref(self) -> SColumn:
        first = self._expect_ident()
        if self._accept_op("."):
            return SColumn(name=self._expect_ident(), qualifier=first)
        return SColumn(name=first)

    def _literal_value(self) -> Any:
        expr = self._unary()
        if isinstance(expr, SLiteral):
            return expr.value
        if isinstance(expr, SBin) and expr.op == "-" and expr.left == SLiteral(0):
            inner = expr.right
            if isinstance(inner, SLiteral):
                return -inner.value
        raise SqlSyntaxError("expected a literal value")
