"""The plan cache: a SELECT's bound plan, reused by its literal variants.

Compiling a statement is lex → parse → schema read → bind → cost-based
rewrite.  Point lookups repeat one statement *shape* with new literals, so
the first three steps after lexing redo the same work every time.  This
cache keeps the **bound** plan of each user-table ``SELECT`` under its
literal-stripped token stream; a later statement with the same tokens
gets that plan with its own literals put in, and skips parse, the schema
read and bind — nothing else.  The rewrite still runs on every execution,
because index probes and join order depend on the literal.

**Validity.**  A bound plan depends only on the ``Tables`` catalog rows of
the tables it names (the schema read runs at the latest commit, never in
the caller's transaction).  An entry remembers the commit sequence of the
newest install into ``Tables`` read *before* binding, and is used only
while that sequence is unchanged; recovery and restore clear the cache.

**Where literals go.**  The binder copies a literal into exactly two
places: a :class:`~repro.engine.expressions.Lit` and the constant of a
``TableScan.prune`` triple.  A plan is stored only when every literal
token is found in such a *slot* by ``(type, value)`` and the literals are
pairwise unequal, so each slot belongs to exactly one token.  A literal
that lands anywhere else (``LIMIT``, ``IN`` lists, ``LIKE`` patterns,
``SUBSTRING`` bounds, ``DATE`` strings) has no slot, so such statements
always compile.  The binder merges aggregates by ``==``, so a variant
whose literals equal each other, or equal a constant the plan holds that
no token produced (``TRUE``, the ``0`` of a unary minus), compiles too.

The cache is process memory, one per
:class:`~repro.fe.context.ServiceContext`, LRU over :data:`CAPACITY`
entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, List, Optional, Tuple

from repro.engine.expressions import Lit
from repro.engine.planner import Plan, TableScan
from repro.sql.lexer import Token
from repro.sql.parser import literal_of

if TYPE_CHECKING:
    from repro.telemetry.metrics import MetricsRegistry

#: Statement shapes one cache holds.
CAPACITY = 256


@dataclass(frozen=True)
class Shape:
    """One SELECT's tokens split into a cache key and its literals."""

    #: Token values, with each literal replaced by its type (``int``,
    #: ``float`` or ``str``), so ``5`` and ``5.0`` key differently.
    key: Tuple[Any, ...]
    #: The literal tokens' values, in text order.
    literals: Tuple[Any, ...]
    #: False when the literals alone rule the cache out (see module doc).
    cacheable: bool

    @classmethod
    def of(cls, tokens: List[Token]) -> "Optional[Shape]":
        """The shape of a ``SELECT``'s tokens; None for any other statement."""
        first = tokens[0]
        if first.kind != "keyword" or first.value != "SELECT":
            return None
        key: List[Any] = []
        literals: List[Any] = []
        for token in tokens:
            if token.kind == "number" or token.kind == "string":
                value = literal_of(token)
                literals.append(value)
                key.append(type(value))
            else:
                key.append(token.value)
        # A set merges 1, 1.0 and True as the binder's ``==`` does.  A
        # unary minus binds as ``0 - x``: its ``0`` would pass for a
        # literal 0 in the slot search.
        cacheable = len(set(literals)) == len(literals) and not (
            "-" in key and 0 in literals
        )
        return cls(tuple(key), tuple(literals), cacheable)


@dataclass(frozen=True)
class _Entry:
    """One cached bound plan."""

    tables_seq: int
    plan: Plan
    literals: Tuple[Any, ...]
    #: Slot values no literal token produced.
    constants: FrozenSet[Any]


@dataclass
class PlanCacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0


class PlanCache:
    """LRU map of SELECT shape -> bound plan."""

    def __init__(self, metrics: "Optional[MetricsRegistry]" = None) -> None:
        self._entries: "OrderedDict[Tuple[Any, ...], _Entry]" = OrderedDict()
        self.stats = PlanCacheStats()
        self._metered = metrics is not None
        if metrics is not None:
            self._hits = metrics.counter("sql.plan_cache.hits")
            self._misses = metrics.counter("sql.plan_cache.misses")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, shape: Shape, tables_seq: int) -> Optional[Plan]:
        """The bound plan of ``shape``'s statement, or None (a miss)."""
        entry = self._entries.get(shape.key) if shape.cacheable else None
        if (
            entry is None
            or entry.tables_seq != tables_seq
            or any(value in entry.constants for value in shape.literals)
        ):
            self.stats.misses += 1
            if self._metered:
                self._misses.inc()
            return None
        self._entries.move_to_end(shape.key)
        self.stats.hits += 1
        if self._metered:
            self._hits.inc()
        swap = {
            (type(old), old): new
            for old, new in zip(entry.literals, shape.literals)
        }
        return _map_slots(
            entry.plan, lambda value: swap.get((type(value), value), value)
        )

    def put(self, shape: Shape, tables_seq: int, plan: Plan) -> None:
        """Remember ``plan``, bound from ``shape``'s statement with the
        ``Tables`` catalog at ``tables_seq``, if its literals can be
        found again (see module doc)."""
        if not shape.cacheable:
            return
        tokens = {(type(value), value) for value in shape.literals}
        found = set()
        constants = set()

        def classify(value: Any) -> Any:
            typed = (type(value), value)
            if typed in tokens:
                found.add(typed)
            else:
                constants.add(value)
            return value

        _map_slots(plan, classify)
        if len(found) != len(tokens) or any(
            value in constants for value in shape.literals
        ):
            return
        self._entries[shape.key] = _Entry(
            tables_seq, plan, shape.literals, frozenset(constants)
        )
        self._entries.move_to_end(shape.key)
        while len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (process restart: the cache is process memory)."""
        self._entries.clear()


def _map_slots(node: Any, fn: Callable[[Any], Any]) -> Any:
    """``node`` with ``fn`` applied to every literal slot — each ``Lit``
    value and each ``TableScan.prune`` constant.  Subtrees ``fn`` leaves
    alone are returned as they are, not copied."""
    if isinstance(node, Lit):
        value = fn(node.value)
        return node if value is node.value else Lit(value)
    if isinstance(node, TableScan):
        predicate = _map_slots(node.predicate, fn)
        prune = tuple(
            (column, op, fn(value)) for column, op, value in node.prune
        )
        if predicate is node.predicate and all(
            new[2] is old[2] for new, old in zip(prune, node.prune)
        ):
            return node
        return replace(node, predicate=predicate, prune=prune)
    if is_dataclass(node):
        changes = {}
        for field in fields(node):
            old = getattr(node, field.name)
            new = _map_slots(old, fn)
            if new is not old:
                changes[field.name] = new
        return replace(node, **changes) if changes else node
    if isinstance(node, tuple):
        items = tuple(_map_slots(item, fn) for item in node)
        return node if all(a is b for a, b in zip(items, node)) else items
    if isinstance(node, dict):
        items = {name: _map_slots(item, fn) for name, item in node.items()}
        same = all(items[name] is item for name, item in node.items())
        return node if same else items
    return node
