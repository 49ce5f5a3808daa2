"""Per-function control-flow graphs for the deep analyses.

One :class:`Block` per statement, plus synthetic empty blocks for control
joins.  Edges carry a kind:

``normal``
    ordinary fall-through / branch flow;
``exc``
    the statement (or ``try`` dispatch) raised and the exception is
    propagating — *any* exception type;
``exc-base``
    only a ``BaseException`` that is **not** an ``Exception`` travels
    this edge — it is the unmatched edge out of a ``try`` whose handlers
    catch ``Exception`` (or bare).  In this codebase that means
    ``SimulatedCrash``, whose escape is a *process crash*, so analyses
    that reason about ordinary error paths filter these edges out.

``try``/``except``/``else``/``finally`` are modelled precisely enough
for may-analyses: the ``finally`` body is built once for the normal
continuation and once for the exceptional continuation, and abrupt exits
(``return``/``break``/``continue``) are routed through every enclosing
``finally`` before reaching their target.  Every function has a single
:attr:`Cfg.exit_block` (normal completion) and a single
:attr:`Cfg.raise_block` (uncaught exception).

``with`` bodies are *not* given special release semantics here — context
managers release in ``__exit__`` on every path, which the analyses model
at a higher level (``with`` acquisitions are exempt from leak pairing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Edge kinds.
NORMAL, EXC, EXC_BASE = "normal", "exc", "exc-base"

#: Names that, caught by a handler, stop *every* exception (nothing escapes).
_CATCH_ALL = {"BaseException"}
#: Names that stop every ordinary Exception but not BaseException crashes.
_CATCH_EXCEPTION = {"Exception"}


@dataclass
class Block:
    """One CFG node: at most one statement plus outgoing kind-tagged edges."""

    bid: int
    stmt: Optional[ast.stmt] = None
    label: str = ""
    succs: List[Tuple["Block", str]] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.label or type(self.stmt).__name__ if self.stmt else self.label
        return f"<B{self.bid} {tag}>"


@dataclass
class Cfg:
    """A built control-flow graph for one function body."""

    blocks: List[Block]
    entry: Block
    exit_block: Block
    raise_block: Block
    #: ``id(ast.If)`` -> synthetic join block after the If (guard promotion).
    if_joins: Dict[int, Block] = field(default_factory=dict)

    def preds(self) -> Dict[int, List[Tuple[Block, str]]]:
        """Block id -> incoming ``(source, kind)`` edges."""
        out: Dict[int, List[Tuple[Block, str]]] = {b.bid: [] for b in self.blocks}
        for block in self.blocks:
            for succ, kind in block.succs:
                out[succ.bid].append((block, kind))
        return out


@dataclass
class _FinallyFrame:
    stmts: List[ast.stmt]
    exc_depth: int
    fin_index: int


@dataclass
class _LoopFrame:
    head: Block
    fin_floor: int
    break_outs: List[Block] = field(default_factory=list)


class _Builder:
    def __init__(self) -> None:
        self.blocks: List[Block] = []
        self.exit_block = self._new(label="exit")
        self.raise_block = self._new(label="raise")
        self.if_joins: Dict[int, Block] = {}
        self.exc_stack: List[Block] = [self.raise_block]
        self.finally_stack: List[_FinallyFrame] = []
        self.loop_stack: List[_LoopFrame] = []

    def _new(self, stmt: Optional[ast.stmt] = None, label: str = "") -> Block:
        block = Block(bid=len(self.blocks), stmt=stmt, label=label)
        self.blocks.append(block)
        return block

    @staticmethod
    def _link(src: Block, dst: Block, kind: str) -> None:
        edge = (dst, kind)
        if edge not in src.succs:
            src.succs.append(edge)

    def _link_all(self, frontier: List[Block], dst: Block, kind: str = NORMAL) -> None:
        for block in frontier:
            self._link(block, dst, kind)

    # -- abrupt-exit routing ----------------------------------------------

    def _run_finallys(self, frontier: List[Block], floor: int) -> List[Block]:
        """Route ``frontier`` through every finally frame above ``floor``."""
        for frame in reversed(self.finally_stack[floor:]):
            saved_exc = self.exc_stack
            saved_fin = self.finally_stack
            self.exc_stack = saved_exc[: frame.exc_depth]
            self.finally_stack = saved_fin[: frame.fin_index]
            entry = self._new(label="finally(abrupt)")
            self._link_all(frontier, entry)
            frontier = self._stmts(frame.stmts, [entry])
            self.exc_stack = saved_exc
            self.finally_stack = saved_fin
        return frontier

    # -- statement dispatch ------------------------------------------------

    def _stmts(self, stmts: List[ast.stmt], frontier: List[Block]) -> List[Block]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: List[Block]) -> List[Block]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, frontier)
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, frontier)
        if isinstance(stmt, ast.Break):
            return self._break(stmt, frontier)
        if isinstance(stmt, ast.Continue):
            return self._continue(stmt, frontier)
        block = self._new(stmt=stmt)
        self._link_all(frontier, block)
        if _may_raise(stmt):
            self._link(block, self.exc_stack[-1], EXC)
        return [block]

    def _if(self, stmt: ast.If, frontier: List[Block]) -> List[Block]:
        head = self._new(stmt=stmt, label="if")
        self._link_all(frontier, head)
        if _expr_may_raise(stmt.test):
            self._link(head, self.exc_stack[-1], EXC)
        body_outs = self._stmts(stmt.body, [head])
        else_outs = self._stmts(stmt.orelse, [head])
        join = self._new(label="if-join")
        self._link_all(body_outs + else_outs, join)
        self.if_joins[id(stmt)] = join
        return [join]

    def _while(self, stmt: ast.While, frontier: List[Block]) -> List[Block]:
        head = self._new(stmt=stmt, label="while")
        self._link_all(frontier, head)
        if _expr_may_raise(stmt.test):
            self._link(head, self.exc_stack[-1], EXC)
        frame = _LoopFrame(head=head, fin_floor=len(self.finally_stack))
        self.loop_stack.append(frame)
        body_outs = self._stmts(stmt.body, [head])
        self._link_all(body_outs, head)
        self.loop_stack.pop()
        infinite = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        normal_exit = [] if infinite else [head]
        else_outs = self._stmts(stmt.orelse, normal_exit) if stmt.orelse else normal_exit
        return else_outs + frame.break_outs

    def _for(self, stmt: ast.stmt, frontier: List[Block]) -> List[Block]:
        head = self._new(stmt=stmt, label="for")
        self._link_all(frontier, head)
        self._link(head, self.exc_stack[-1], EXC)
        frame = _LoopFrame(head=head, fin_floor=len(self.finally_stack))
        self.loop_stack.append(frame)
        body_outs = self._stmts(stmt.body, [head])
        self._link_all(body_outs, head)
        self.loop_stack.pop()
        orelse = getattr(stmt, "orelse", [])
        else_outs = self._stmts(orelse, [head]) if orelse else [head]
        return else_outs + frame.break_outs

    def _with(self, stmt: ast.stmt, frontier: List[Block]) -> List[Block]:
        head = self._new(stmt=stmt, label="with")
        self._link_all(frontier, head)
        self._link(head, self.exc_stack[-1], EXC)
        return self._stmts(stmt.body, [head])

    def _return(self, stmt: ast.Return, frontier: List[Block]) -> List[Block]:
        block = self._new(stmt=stmt, label="return")
        self._link_all(frontier, block)
        if stmt.value is not None and _expr_may_raise(stmt.value):
            self._link(block, self.exc_stack[-1], EXC)
        outs = self._run_finallys([block], 0)
        self._link_all(outs, self.exit_block)
        return []

    def _raise(self, stmt: ast.Raise, frontier: List[Block]) -> List[Block]:
        block = self._new(stmt=stmt, label="raise-stmt")
        self._link_all(frontier, block)
        self._link(block, self.exc_stack[-1], EXC)
        return []

    def _break(self, stmt: ast.Break, frontier: List[Block]) -> List[Block]:
        block = self._new(stmt=stmt, label="break")
        self._link_all(frontier, block)
        if self.loop_stack:
            frame = self.loop_stack[-1]
            frame.break_outs.extend(self._run_finallys([block], frame.fin_floor))
        return []

    def _continue(self, stmt: ast.Continue, frontier: List[Block]) -> List[Block]:
        block = self._new(stmt=stmt, label="continue")
        self._link_all(frontier, block)
        if self.loop_stack:
            frame = self.loop_stack[-1]
            outs = self._run_finallys([block], frame.fin_floor)
            self._link_all(outs, frame.head)
        return []

    # -- try/except/else/finally ------------------------------------------

    def _try(self, stmt: ast.Try, frontier: List[Block]) -> List[Block]:
        outer_exc = self.exc_stack[-1]
        if stmt.finalbody:
            # Exceptional copy of the finally body: runs outside this
            # try's own frame, then re-propagates to the outer target.
            fin_exc_entry = self._new(label="finally(exc)")
            fin_outs = self._stmts(stmt.finalbody, [fin_exc_entry])
            self._link_all(fin_outs, outer_exc, EXC)
            effective_outer = fin_exc_entry
            self.finally_stack.append(
                _FinallyFrame(
                    stmts=stmt.finalbody,
                    exc_depth=len(self.exc_stack),
                    fin_index=len(self.finally_stack),
                )
            )
        else:
            effective_outer = outer_exc

        if stmt.handlers:
            dispatch = self._new(label="dispatch")
            self.exc_stack.append(dispatch)
            body_outs = self._stmts(stmt.body, frontier)
            self.exc_stack.pop()

            self.exc_stack.append(effective_outer)
            handler_outs: List[Block] = []
            for handler in stmt.handlers:
                entry = self._new(label=f"except:{_handler_label(handler)}")
                self._link(dispatch, entry, EXC)
                handler_outs.extend(self._stmts(handler.body, [entry]))
            if not self._catches_everything(stmt.handlers):
                kind = (
                    EXC_BASE
                    if self._catches_exception(stmt.handlers)
                    else EXC
                )
                self._link(dispatch, effective_outer, kind)
            else_outs = (
                self._stmts(stmt.orelse, body_outs) if stmt.orelse else body_outs
            )
            self.exc_stack.pop()
            normal_outs = else_outs + handler_outs
        else:
            self.exc_stack.append(effective_outer)
            normal_outs = self._stmts(stmt.body, frontier)
            self.exc_stack.pop()

        if stmt.finalbody:
            self.finally_stack.pop()
            fin_norm_entry = self._new(label="finally(normal)")
            self._link_all(normal_outs, fin_norm_entry)
            return self._stmts(stmt.finalbody, [fin_norm_entry])
        return normal_outs

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> List[str]:
        if handler.type is None:
            return ["<bare>"]
        nodes = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        out = []
        for node in nodes:
            if isinstance(node, ast.Attribute):
                out.append(node.attr)
            elif isinstance(node, ast.Name):
                out.append(node.id)
            else:
                out.append("<bare>")
        return out or ["<bare>"]

    @classmethod
    def _catches_everything(cls, handlers: List[ast.ExceptHandler]) -> bool:
        for handler in handlers:
            if handler.type is None:
                return True
            if set(cls._handler_names(handler)) & _CATCH_ALL:
                return True
        return False

    @classmethod
    def _catches_exception(cls, handlers: List[ast.ExceptHandler]) -> bool:
        for handler in handlers:
            if set(cls._handler_names(handler)) & _CATCH_EXCEPTION:
                return True
        return False


def build_cfg(func: ast.AST) -> Cfg:
    """Build the CFG for one function/method definition node."""
    builder = _Builder()
    entry = builder._new(label="entry")
    outs = builder._stmts(getattr(func, "body", []), [entry])
    builder._link_all(outs, builder.exit_block)
    return Cfg(
        blocks=builder.blocks,
        entry=entry,
        exit_block=builder.exit_block,
        raise_block=builder.raise_block,
        if_joins=builder.if_joins,
    )


def _handler_label(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "bare"
    return "/".join(_Builder._handler_names(handler))


def _expr_may_raise(node: ast.AST) -> bool:
    if isinstance(node, (ast.Name, ast.Constant)):
        return False
    # Literal containers of safe elements cannot raise at construction.
    if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
        return any(_expr_may_raise(elt) for elt in node.elts)
    if isinstance(node, ast.Dict):
        # A ``None`` key is a ``**spread`` — that one may raise.
        return any(k is None or _expr_may_raise(k) for k in node.keys) or any(
            _expr_may_raise(v) for v in node.values
        )
    # Identity tests never invoke user code (no __eq__ dispatch).
    if isinstance(node, ast.Compare):
        return not (
            all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and not _expr_may_raise(node.left)
            and not any(_expr_may_raise(c) for c in node.comparators)
        )
    return True


def _may_raise(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal)):
        return False
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return False
    if isinstance(stmt, ast.Assign):
        simple_targets = all(isinstance(t, ast.Name) for t in stmt.targets)
        return not (simple_targets and not _expr_may_raise(stmt.value))
    if isinstance(stmt, ast.AnnAssign):
        # Local-variable annotations are not evaluated at runtime.
        return not (
            isinstance(stmt.target, ast.Name)
            and (stmt.value is None or not _expr_may_raise(stmt.value))
        )
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    return True
