"""The whole-program ("deep") analyses: ``python -m repro.analysis --deep``.

Five analyses run over a :class:`~repro.analysis.callgraph.Program`
instead of one module at a time:

``lock-order``
    builds the global lock-order graph from every ``with lock.held():``
    / ``with some_lock:`` / ``acquire()``/``release()`` site, propagated
    through the call graph, and reports cycles (potential deadlocks),
    re-entrant acquisitions, and inversions of the canonical order.
``crash-unwind``
    every function from which a registered crashpoint is reachable must
    let ``SimulatedCrash`` unwind: the first handler that could catch it
    (bare / ``BaseException`` / ``SimulatedCrash``) must re-raise on
    every path.  ``chaos/`` is the process boundary and is exempt.
``resource-leak``
    acquire/release pairing on all CFG paths for gateway sessions,
    telemetry spans, and query-store execution tokens.  Non-``with``
    acquisitions must be released in a ``finally`` or on every exit
    edge; error paths are checked with ``exc-base`` (crash-only) edges
    excluded, because a simulated process crash is *supposed* to leave
    in-flight state for recovery scavenging.
``determinism-taint``
    interprocedural lift of wallclock-purity and seeded-randomness: a
    call from engine code into a helper that (transitively) reads the
    wall clock or unseeded randomness is flagged at the laundering call
    site, even though the call site itself looks innocent.
``crashpoint-reachability``
    every name in ``CRASHPOINTS`` must be instrumented by a
    ``crashpoint()`` call whose enclosing function is reachable from a
    public FE/service/STO entrypoint — otherwise the chaos sweep
    "covers" a site that no real workload can ever hit.

Suppressions use the same ``# repro: ignore[rule]`` comments as the
linter; the deep runner honours and (in strict mode) validates the ones
naming deep rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.callgraph import CALL, LEXICAL, REF, FunctionInfo, Program
from repro.analysis.cfg import build_cfg, completion
from repro.analysis.dataflow import GenKill, drop_exc_base
from repro.analysis.framework import (
    Finding,
    ModuleSource,
    import_map,
    register_external_rules,
    resolve_name,
)
from repro.analysis.rules import WALLCLOCK_BANNED

#: The deep rule names (suppressible like lint rules).
DEEP_RULES: List[str] = [
    "lock-order",
    "crash-unwind",
    "resource-leak",
    "determinism-taint",
    "crashpoint-reachability",
]

register_external_rules(DEEP_RULES)

#: Outermost-first canonical lock order; acquiring a lock that appears
#: *earlier* in this list while holding a later one is an inversion even
#: before a full cycle exists.  Extend as the system grows more locks.
CANONICAL_LOCK_ORDER: Tuple[str, ...] = (
    "gateway_lock",
    "pool_lock",
    "commit_lock",
)

#: Modules treated as the crash process boundary (may catch SimulatedCrash).
_CRASH_BOUNDARY_DIRS = ("chaos",)

#: Modules where direct wall-clock use is lint-exempt; a *call into* them
#: that reaches the wall clock is exactly what determinism-taint flags.
_WALLCLOCK_EXEMPT_DIRS = ("telemetry",)
_WALLCLOCK_EXEMPT_FILES = ("common/clock.py",)

#: Public entry surfaces for crashpoint reachability (posix suffixes).
ENTRY_SUFFIXES: Tuple[str, ...] = (
    "fe/session.py",
    "fe/warehouse.py",
    "service/gateway.py",
    "service/__main__.py",
    "sto/orchestrator.py",
    "sql/runner.py",
    "chaos/harness.py",
    "chaos/recovery.py",
)


@dataclass(frozen=True)
class ResourceSpec:
    """One acquire/release protocol tracked by the leak analysis."""

    kind: str
    acquire: str
    release: Tuple[str, ...]
    #: Class-name suffixes whose methods match (resolved via call graph).
    receiver_classes: Tuple[str, ...]
    #: Receiver identifier hints when resolution fails (last segment,
    #: ``self.``/leading underscores stripped).
    receiver_hints: Tuple[str, ...]


#: The protocols the repo actually uses.  Admission tokens are absent by
#: design: ``TokenBucket.try_take`` consumes budget that refills with
#: simulated time — there is no release operation to pair.
RESOURCE_SPECS: Tuple[ResourceSpec, ...] = (
    ResourceSpec(
        kind="gateway-session",
        acquire="acquire",
        release=("release", "close_all"),
        receiver_classes=("SessionPool",),
        receiver_hints=("pool", "session_pool", "sessions"),
    ),
    ResourceSpec(
        kind="span",
        acquire="start_span",
        release=("end_span",),
        receiver_classes=("Telemetry",),
        receiver_hints=("tel", "telemetry"),
    ),
    ResourceSpec(
        kind="query-execution",
        acquire="start",
        release=("finish", "scavenge"),
        receiver_classes=("QueryStore",),
        receiver_hints=("store", "querystore", "query_store"),
    ),
)


# -- shared helpers ------------------------------------------------------------


def _own_nodes(func_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body, *excluding* nested function/class bodies."""
    stack: List[ast.AST] = list(getattr(func_node, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _in_dir(module: ModuleSource, directory: str) -> bool:
    return f"/{directory}/" in "/" + module.posix


def _endswith(module: ModuleSource, suffix: str) -> bool:
    return ("/" + module.posix).endswith("/" + suffix)


def _receiver_chain(node: ast.AST) -> Optional[List[str]]:
    """``self._pool.acquire`` -> ``["self", "_pool"]`` (without the method)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts[:-1] if len(parts) > 1 else []


def _hint_name(chain: List[str]) -> Optional[str]:
    """The significant identifier of a receiver chain, normalised."""
    for part in reversed(chain):
        if part in ("self", "cls"):
            continue
        return part.lstrip("_")
    return None


def _is_lock_token(name: str) -> bool:
    """Identifier names a lock: has a ``lock``/``mutex`` segment."""
    segments = name.lstrip("_").lower().split("_")
    return any(seg in ("lock", "locks", "mutex") for seg in segments)


def _finding(
    module: ModuleSource, lineno: int, rule: str, message: str
) -> Finding:
    return Finding(path=module.relpath, line=lineno, rule=rule, message=message)


def _callsite_index(
    program: Program,
) -> Dict[Tuple[str, int, str], str]:
    """(caller, lineno, method-name) -> resolved callee qualname."""
    index: Dict[Tuple[str, int, str], str] = {}
    for site in program.calls:
        if site.kind != CALL:
            continue
        method = site.callee.rpartition(".")[2]
        index[(site.caller, site.lineno, method)] = site.callee
    return index


# -- lock-order ----------------------------------------------------------------


def _lock_token_of_with_item(item: ast.withitem) -> Optional[str]:
    """The lock token a ``with`` item acquires, if it is a lock."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in ("held", "acquire"):
            chain = _receiver_chain(func)
            if chain is not None:
                name = _hint_name(chain)
                if name:
                    return name
        return None
    if isinstance(expr, ast.Name) and _is_lock_token(expr.id):
        return expr.id.lstrip("_")
    if isinstance(expr, ast.Attribute) and _is_lock_token(expr.attr):
        return expr.attr.lstrip("_")
    return None


def _scan_lock_events(
    func: FunctionInfo,
) -> Tuple[List[Tuple[str, ast.AST, Set[str]]], List[Tuple[ast.Call, Set[str]]]]:
    """``(acquisitions, calls)`` with the lexically-held set at each.

    Acquisitions are ``with``-based lock grabs plus explicit
    ``x.acquire()`` calls on lock-named receivers; ``calls`` is every
    call site (for interprocedural propagation).
    """
    acquisitions: List[Tuple[str, ast.AST, Set[str]]] = []
    calls: List[Tuple[ast.Call, Set[str]]] = []

    def visit(stmts: Sequence[ast.stmt], held: Set[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = set(held)
                for item in stmt.items:
                    token = _lock_token_of_with_item(item)
                    if token is not None:
                        acquisitions.append((token, stmt, set(inner)))
                        inner.add(token)
                    for call in _calls_in_expr(item.context_expr):
                        calls.append((call, set(held)))
                visit(stmt.body, inner)
                continue
            for call in _calls_in_stmt_head(stmt):
                calls.append((call, set(held)))
                token = _explicit_lock_call(call)
                if token is not None:
                    acquisitions.append((token, call, set(held)))
            for child in _child_stmt_lists(stmt):
                visit(child, held)

    visit(getattr(func.node, "body", []), set())
    return acquisitions, calls


def _explicit_lock_call(call: ast.Call) -> Optional[str]:
    """Token for an explicit ``x.acquire()`` on a lock-named receiver."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "acquire":
        chain = _receiver_chain(func)
        if chain is not None:
            name = _hint_name(chain)
            if name and _is_lock_token(name):
                return name
    return None


def _child_stmt_lists(stmt: ast.stmt) -> List[List[ast.stmt]]:
    out = []
    for attr in ("body", "orelse", "finalbody"):
        child = getattr(stmt, attr, None)
        if child:
            out.append(child)
    for handler in getattr(stmt, "handlers", []) or []:
        out.append(handler.body)
    return out


def _calls_in_stmt_head(stmt: ast.stmt) -> List[ast.Call]:
    """Call nodes evaluated by this statement itself (not nested stmts)."""
    exprs: List[ast.AST] = []
    if isinstance(stmt, (ast.If, ast.While)):
        exprs = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        exprs = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        exprs = []
    else:
        exprs = [stmt]
    calls: List[ast.Call] = []
    for expr in exprs:
        calls.extend(_calls_in_expr(expr))
    return calls


def _calls_in_expr(expr: ast.AST) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(expr)
        if isinstance(node, ast.Call)
        and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def check_lock_order(program: Program) -> List[Finding]:
    """Build the global lock-order graph; report cycles and inversions."""
    # 1. per-function acquisition scans.
    per_func: Dict[str, Tuple[list, list]] = {}
    for qualname, info in program.functions.items():
        per_func[qualname] = _scan_lock_events(info)

    # 2. transitive lock sets: locks a call into f may acquire.
    acq_trans: Dict[str, Set[str]] = {
        q: {token for token, _, _ in events[0]} for q, events in per_func.items()
    }
    changed = True
    while changed:
        changed = False
        for qualname in per_func:
            for site in program.callees_of(qualname):
                if site.kind != CALL:
                    continue
                extra = acq_trans.get(site.callee, set()) - acq_trans[qualname]
                if extra:
                    acq_trans[qualname] |= extra
                    changed = True

    # 3. order edges: held -> acquired, with an example site each.
    edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

    def add_edge(held: str, acquired: str, module: str, lineno: int) -> None:
        edges.setdefault((held, acquired), (module, lineno))

    callsites = {
        (s.caller, s.lineno): s.callee
        for s in program.calls
        if s.kind == CALL
    }
    for qualname, (acquisitions, calls) in per_func.items():
        info = program.functions[qualname]
        for token, node, held in acquisitions:
            for h in held:
                add_edge(h, token, info.module, node.lineno)
        for call, held in calls:
            if not held:
                continue
            callee = callsites.get((qualname, call.lineno))
            if callee is None:
                continue
            for token in acq_trans.get(callee, set()):
                for h in held:
                    add_edge(h, token, info.module, call.lineno)

    findings: List[Finding] = []

    def module_of(name: str) -> ModuleSource:
        return program.modules[name]

    # 4a. re-entrant self-loops.
    for (held, acquired), (modname, lineno) in sorted(edges.items()):
        if held == acquired:
            findings.append(
                _finding(
                    module_of(modname),
                    lineno,
                    "lock-order",
                    f"lock '{acquired}' acquired while already held "
                    "(non-reentrant locks deadlock here)",
                )
            )

    # 4b. cycles via DFS over the order graph.
    graph: Dict[str, Set[str]] = {}
    for held, acquired in edges:
        if held != acquired:
            graph.setdefault(held, set()).add(acquired)
    for cycle in _find_cycles(graph):
        members = set(cycle)
        modname, lineno = next(
            (
                site
                for (held, acquired), site in sorted(edges.items())
                if held in members and acquired in members
            ),
            next(iter(edges.values())),
        )
        pretty = " -> ".join(cycle + [cycle[0]])
        findings.append(
            _finding(
                module_of(modname),
                lineno,
                "lock-order",
                f"lock-order cycle {pretty}: concurrent threads taking "
                "these locks in different orders can deadlock",
            )
        )

    # 4c. canonical-order inversions.
    rank = {name: i for i, name in enumerate(CANONICAL_LOCK_ORDER)}
    for (held, acquired), (modname, lineno) in sorted(edges.items()):
        if held in rank and acquired in rank and rank[held] > rank[acquired]:
            findings.append(
                _finding(
                    module_of(modname),
                    lineno,
                    "lock-order",
                    f"'{acquired}' acquired while holding '{held}' inverts "
                    "the canonical lock order "
                    f"({' -> '.join(CANONICAL_LOCK_ORDER)})",
                )
            )
    return findings


def _find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Minimal cycle enumeration: one representative cycle per SCC > 1."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph.get(v, ())):
            if w not in index:
                strongconnect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            if len(component) > 1:
                sccs.append(sorted(component))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return sccs


# -- crash-unwind --------------------------------------------------------------

_CRASH_CATCHERS = {"SimulatedCrash", "BaseException"}


def _crashpoint_functions(program: Program) -> Set[str]:
    out: Set[str] = set()
    for qualname, info in program.functions.items():
        for node in _own_nodes(info.node):
            if (
                isinstance(node, ast.Call)
                and _call_tail(node) == "crashpoint"
            ):
                out.add(qualname)
                break
    return out


def _call_tail(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _handler_catches_crash(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in nodes:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None
        )
        if name in _CRASH_CATCHERS:
            return True
    return False


def check_crash_unwind(program: Program) -> List[Finding]:
    """No handler reachable from a crashpoint may swallow SimulatedCrash."""
    cp_funcs = _crashpoint_functions(program)
    if not cp_funcs:
        return []
    can_crash = program.transitive_callers(sorted(cp_funcs), kinds=(CALL,))
    callsites = {
        (s.caller, s.lineno): s.callee
        for s in program.calls
        if s.kind == CALL
    }
    findings: List[Finding] = []
    for qualname in sorted(can_crash):
        info = program.functions[qualname]
        module = program.modules[info.module]
        if any(_in_dir(module, d) for d in _CRASH_BOUNDARY_DIRS):
            continue
        for node in _own_nodes(info.node):
            if not isinstance(node, ast.Try):
                continue
            if not _try_body_can_crash(node, qualname, cp_funcs, can_crash, callsites):
                continue
            for handler in node.handlers:
                if not _handler_catches_crash(handler):
                    continue
                falls, returns = completion(handler.body)
                if falls or returns:
                    how = "falls through" if falls else "returns"
                    findings.append(
                        _finding(
                            module,
                            handler.lineno,
                            "crash-unwind",
                            "handler catches SimulatedCrash raised inside "
                            f"this try (via a crashpoint) but {how} without "
                            "re-raising; a simulated crash must unwind to "
                            "the chaos harness — add `except SimulatedCrash: "
                            "raise` above it or re-raise",
                        )
                    )
                break  # later handlers never see the crash
    return findings


def _try_body_can_crash(
    node: ast.Try,
    qualname: str,
    cp_funcs: Set[str],
    can_crash: Set[str],
    callsites: Dict[Tuple[str, int], str],
) -> bool:
    stack: List[ast.AST] = list(node.body)
    while stack:
        inner = stack.pop()
        if isinstance(
            inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(inner, ast.Call):
            if _call_tail(inner) == "crashpoint":
                return True
            callee = callsites.get((qualname, inner.lineno))
            if callee is not None and callee in can_crash:
                return True
        stack.extend(ast.iter_child_nodes(inner))
    return False


# -- resource-leak -------------------------------------------------------------


@dataclass
class _Token:
    key: str
    spec: ResourceSpec
    var: Optional[str]
    lineno: int
    guard: Optional[str] = None


def _match_spec_call(
    call: ast.Call,
    method_names: Set[str],
    func: FunctionInfo,
    callsite_index: Dict[Tuple[str, int, str], str],
) -> Optional[Tuple[str, Optional[str]]]:
    """``(method, resolved-callee-class)`` when the call's method matches."""
    tail = _call_tail(call)
    if tail not in method_names:
        return None
    callee = callsite_index.get((func.qualname, call.lineno, tail))
    cls = callee.rpartition(".")[0].rpartition(".")[2] if callee else None
    return tail, cls


def _spec_for_acquire(
    call: ast.Call,
    func: FunctionInfo,
    callsite_index: Dict[Tuple[str, int, str], str],
) -> Optional[ResourceSpec]:
    tail = _call_tail(call)
    for spec in RESOURCE_SPECS:
        if tail != spec.acquire:
            continue
        callee = callsite_index.get((func.qualname, call.lineno, tail))
        if callee is not None:
            cls = callee.rpartition(".")[0].rpartition(".")[2]
            if cls in spec.receiver_classes:
                return spec
            continue
        chain = (
            _receiver_chain(call.func)
            if isinstance(call.func, ast.Attribute)
            else None
        )
        hint = _hint_name(chain) if chain else None
        if hint is not None and hint.lower() in spec.receiver_hints:
            return spec
    return None


def _release_matches(
    call: ast.Call,
    spec: ResourceSpec,
    func: FunctionInfo,
    callsite_index: Dict[Tuple[str, int, str], str],
) -> bool:
    tail = _call_tail(call)
    if tail not in spec.release:
        return False
    callee = callsite_index.get((func.qualname, call.lineno, tail))
    if callee is not None:
        cls = callee.rpartition(".")[0].rpartition(".")[2]
        return cls in spec.receiver_classes
    chain = (
        _receiver_chain(call.func)
        if isinstance(call.func, ast.Attribute)
        else None
    )
    hint = _hint_name(chain) if chain else None
    if hint is not None and hint.lower() in spec.receiver_hints:
        return True
    # ``token.release()`` — receiver is the tracked variable itself.
    return False


def check_resource_leaks(program: Program) -> List[Finding]:
    """Acquire/release pairing on every CFG path, per function."""
    findings: List[Finding] = []
    callsite_index = _callsite_index(program)
    summaries = _release_summaries(program, callsite_index)
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        module = program.modules[info.module]
        findings.extend(
            _check_function_leaks(info, module, callsite_index, summaries)
        )
    return findings


def _param_names(info: FunctionInfo) -> List[str]:
    node = info.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    return [a.arg for a in node.args.args] + [
        a.arg for a in node.args.kwonlyargs
    ]


@dataclass
class _ReleaseSummaries:
    """Which functions release which of their parameters.

    ``released``: qualname -> {param name: resource kind}; ``params_of``:
    qualname -> positional parameter names (for arg-to-param mapping).
    """

    released: Dict[str, Dict[str, str]]
    params_of: Dict[str, List[str]]


def _release_summaries(
    program: Program,
    callsite_index: Dict[Tuple[str, int, str], str],
) -> _ReleaseSummaries:
    """Per-function release summaries, to a fixpoint.

    A function *releases a parameter* when it passes that parameter to a
    release call of some resource spec (``tel.end_span(span, ...)``), or
    — transitively — forwards it to a callee that does.  Call sites that
    hand a tracked token to such a helper count as releases.
    """
    params_of = {q: _param_names(i) for q, i in program.functions.items()}
    released: Dict[str, Dict[str, str]] = {q: {} for q in program.functions}
    for qualname, info in program.functions.items():
        own_params = set(params_of[qualname])
        for node in _own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            tail = _call_tail(node)
            for spec in RESOURCE_SPECS:
                if tail not in spec.release:
                    continue
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in own_params:
                        released[qualname].setdefault(arg.id, spec.kind)
    changed = True
    while changed:
        changed = False
        for qualname, info in program.functions.items():
            own_params = set(params_of[qualname])
            for node in _own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                tail = _call_tail(node)
                if tail is None:
                    continue
                callee = callsite_index.get((qualname, node.lineno, tail))
                if callee is None or not released.get(callee):
                    continue
                for arg_name, kind in _released_args(
                    node, callee, params_of, released[callee]
                ):
                    if (
                        arg_name in own_params
                        and arg_name not in released[qualname]
                    ):
                        released[qualname][arg_name] = kind
                        changed = True
    return _ReleaseSummaries(
        released={q: s for q, s in released.items() if s},
        params_of=params_of,
    )


def _released_args(
    call: ast.Call,
    callee: str,
    params_of: Dict[str, List[str]],
    released_params: Dict[str, str],
) -> List[Tuple[str, str]]:
    """``(caller-side arg name, kind)`` pairs a call releases via ``callee``.

    Positional arguments are mapped onto the callee's parameter list,
    skipping a leading ``self``/``cls`` (bound method calls do not pass
    it explicitly).
    """
    params = params_of.get(callee, [])
    offset = 1 if params[:1] and params[0] in ("self", "cls") else 0
    out: List[Tuple[str, str]] = []
    for j, arg in enumerate(call.args):
        if not isinstance(arg, ast.Name):
            continue
        idx = offset + j
        if idx < len(params) and params[idx] in released_params:
            out.append((arg.id, released_params[params[idx]]))
    for kw in call.keywords:
        if (
            kw.arg is not None
            and isinstance(kw.value, ast.Name)
            and kw.arg in released_params
        ):
            out.append((kw.value.id, released_params[kw.arg]))
    return out


def _with_call_ids(func_node: ast.AST) -> Set[int]:
    out: Set[int] = set()
    for node in _own_nodes(func_node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for call in ast.walk(item.context_expr):
                    if isinstance(call, ast.Call):
                        out.add(id(call))
    return out


def _escaped_names(func_node: ast.AST) -> Set[str]:
    """Variable names whose value escapes the function's ownership.

    A ``@contextmanager`` generator resumes after its ``yield``, so what
    it yields is lent to the ``with`` body, not handed off: it still
    owes the release.
    """
    escaped: Set[str] = set()
    lends = any(
        getattr(deco, "attr", getattr(deco, "id", None)) == "contextmanager"
        for deco in getattr(func_node, "decorator_list", [])
    )
    for node in _own_nodes(func_node):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            escaped.add(node.value.id)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and not lends:
            value = node.value
            if isinstance(value, ast.Name):
                escaped.add(value.id)
        elif isinstance(node, ast.Assign):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ) and isinstance(node.value, ast.Name):
                escaped.add(node.value.id)
    return escaped


def _check_function_leaks(
    info: FunctionInfo,
    module: ModuleSource,
    callsite_index: Dict[Tuple[str, int, str], str],
    summaries: _ReleaseSummaries,
) -> List[Finding]:
    node = info.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    with_calls = _with_call_ids(node)

    # -- find acquisitions bound to locals ---------------------------------
    tokens: Dict[str, _Token] = {}
    discarded: List[Tuple[ResourceSpec, int]] = []
    for stmt in _own_nodes(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            var = stmt.targets[0].id
            guard = None
            value = stmt.value
            if isinstance(value, ast.IfExp) and isinstance(
                _first_name(value.test), ast.Name
            ):
                guard = _first_name(value.test).id
            for call in _calls_in_expr(stmt.value):
                if id(call) in with_calls:
                    continue
                spec = _spec_for_acquire(call, info, callsite_index)
                if spec is not None:
                    key = f"{spec.kind}:{var}"
                    tokens[key] = _Token(
                        key=key,
                        spec=spec,
                        var=var,
                        lineno=stmt.lineno,
                        guard=guard,
                    )
        elif isinstance(stmt, ast.Expr):
            for call in _calls_in_expr(stmt.value):
                if id(call) in with_calls:
                    continue
                spec = _spec_for_acquire(call, info, callsite_index)
                if spec is not None:
                    discarded.append((spec, call.lineno))
    findings = [
        _finding(
            module,
            lineno,
            "resource-leak",
            f"{spec.kind} acquired via {spec.acquire}() and immediately "
            "discarded; bind it and release it (or use a `with` block)",
        )
        for spec, lineno in discarded
    ]
    if not tokens:
        return findings

    escaped = _escaped_names(node)
    tokens = {
        key: tok
        for key, tok in tokens.items()
        if tok.var not in escaped
    }
    if not tokens:
        return findings

    # -- build gen/kill over the CFG ---------------------------------------
    cfg = build_cfg(node)
    gen: Dict[int, Set[str]] = {}
    kill: Dict[int, Set[str]] = {}
    by_var = {tok.var: tok for tok in tokens.values()}
    for block in cfg.blocks:
        if block.stmt is None:
            continue
        for call in _calls_in_stmt_head(block.stmt):
            if id(call) in with_calls:
                continue
            spec = _spec_for_acquire(call, info, callsite_index)
            if spec is not None and isinstance(block.stmt, ast.Assign):
                targets = block.stmt.targets
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    key = f"{spec.kind}:{targets[0].id}"
                    if key in tokens:
                        gen.setdefault(block.bid, set()).add(key)
            for key, tok in tokens.items():
                if _kills_token(call, tok, info, callsite_index, summaries):
                    kill.setdefault(block.bid, set()).add(key)
        # rebinding the variable to something else drops the old value.
        if isinstance(block.stmt, ast.Assign):
            targets = block.stmt.targets
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                var = targets[0].id
                tok = by_var.get(var)
                if tok is not None and tok.key not in gen.get(
                    block.bid, set()
                ):
                    kill.setdefault(block.bid, set()).add(tok.key)

    # -- guard promotion at if-joins ---------------------------------------
    extra_kills: Dict[int, Set[str]] = {}
    for stmt in _own_nodes(node):
        if not isinstance(stmt, ast.If):
            continue
        join = cfg.if_joins.get(id(stmt))
        if join is None:
            continue
        guard = _guard_test(stmt.test)
        if guard is None:
            continue
        test_name, truthy_means_live = guard
        live_branch = stmt.body if truthy_means_live else stmt.orelse
        for key, tok in tokens.items():
            guard_names = {tok.var}
            if tok.guard:
                guard_names.add(tok.guard)
            if test_name not in guard_names:
                continue
            if _branch_releases(
                live_branch, tok, info, callsite_index, summaries
            ):
                extra_kills.setdefault(join.bid, set()).add(key)

    analysis = GenKill(gen=gen, kill=kill, extra_kills=extra_kills)
    in_states = analysis.solve(cfg, edge_filter=drop_exc_base)
    held_exit = in_states[cfg.exit_block.bid]
    held_raise = in_states[cfg.raise_block.bid]
    for key in sorted(tokens):
        tok = tokens[key]
        on_normal = key in held_exit
        on_error = key in held_raise
        if not on_normal and not on_error:
            continue
        if on_normal and on_error:
            where = "on both normal and error paths"
        elif on_normal:
            where = "on a normal path"
        else:
            where = "on an error path (release it in a `finally`)"
        findings.append(
            _finding(
                module,
                tok.lineno,
                "resource-leak",
                f"{tok.spec.kind} '{tok.var}' acquired here may never be "
                f"released {where}",
            )
        )
    return findings


def _first_name(expr: ast.AST) -> Optional[ast.Name]:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            return node
    return None


def _guard_test(test: ast.AST) -> Optional[Tuple[str, bool]]:
    """``(name, truthy-means-live)`` for a None/truthiness guard test.

    ``if x:`` / ``if x is not None:`` -> ``(x, True)`` — the *body* runs
    with the token live.  ``if not x:`` / ``if x is None:`` ->
    ``(x, False)`` — the *else* branch is the live one.
    """
    if isinstance(test, ast.Name):
        return test.id, True
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _guard_test(test.operand)
        if inner is not None:
            return inner[0], not inner[1]
        return None
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return test.left.id, isinstance(test.ops[0], ast.IsNot)
    return None


def _branch_releases(
    stmts: Sequence[ast.stmt],
    tok: _Token,
    info: FunctionInfo,
    callsite_index: Dict[Tuple[str, int, str], str],
    summaries: _ReleaseSummaries,
) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _kills_token(
                node, tok, info, callsite_index, summaries
            ):
                return True
    return False


def _kills_token(
    call: ast.Call,
    tok: _Token,
    info: FunctionInfo,
    callsite_index: Dict[Tuple[str, int, str], str],
    summaries: _ReleaseSummaries,
) -> bool:
    tail = _call_tail(call)
    if tail in tok.spec.release:
        # token passed as an argument: pool.release(sess), store.finish(tok).
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id == tok.var:
                return True
        # token as receiver: sess.release() style.
        if isinstance(call.func, ast.Attribute):
            chain = _receiver_chain(call.func)
            if chain and chain[-1] == tok.var:
                return True
        # no token argument at all: close_all()/scavenge() sweep the kind,
        # provided the receiver matches the spec.
        has_name_args = any(isinstance(a, ast.Name) for a in call.args)
        if not has_name_args and _release_matches(
            call, tok.spec, info, callsite_index
        ):
            return True
        return False
    # interprocedural: the token is handed to a helper whose summary says
    # it releases that argument (self._record_attempt(tel, span, ...)).
    if tail is None:
        return False
    callee = callsite_index.get((info.qualname, call.lineno, tail))
    if callee is None:
        return False
    released = summaries.released.get(callee)
    if not released:
        return False
    for arg_name, kind in _released_args(
        call, callee, summaries.params_of, released
    ):
        if arg_name == tok.var and kind == tok.spec.kind:
            return True
    return False


# -- determinism-taint ---------------------------------------------------------


def _wallclock_exempt(module: ModuleSource) -> bool:
    return any(_in_dir(module, d) for d in _WALLCLOCK_EXEMPT_DIRS) or any(
        _endswith(module, f) for f in _WALLCLOCK_EXEMPT_FILES
    )


def _direct_taints(program: Program) -> Tuple[Set[str], Set[str]]:
    """(wallclock-tainted, randomness-tainted) functions, direct only."""
    wall: Set[str] = set()
    rand: Set[str] = set()
    imports_by_module = {
        name: import_map(mod.tree) for name, mod in program.modules.items()
    }
    for qualname, info in program.functions.items():
        imports = imports_by_module[info.module]
        for node in _own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            full = resolve_name(node.func, imports)
            if full is None:
                continue
            if full in WALLCLOCK_BANNED:
                wall.add(qualname)
            elif full == "random.Random":
                if not node.args and not node.keywords:
                    rand.add(qualname)
            elif full.startswith("random.") and full != "random.Random":
                rand.add(qualname)
    return wall, rand


def check_determinism_taint(program: Program) -> List[Finding]:
    """Flag cross-module calls that launder wallclock time or randomness."""
    wall_direct, rand_direct = _direct_taints(program)
    wall_tainted = program.transitive_callers(sorted(wall_direct), kinds=(CALL,))
    rand_tainted = program.transitive_callers(sorted(rand_direct), kinds=(CALL,))
    findings: List[Finding] = []
    for site in program.calls:
        if site.kind != CALL:
            continue
        caller = program.functions.get(site.caller)
        callee = program.functions.get(site.callee)
        if caller is None or callee is None:
            continue
        if caller.module == callee.module:
            continue
        caller_module = program.modules[caller.module]
        callee_module = program.modules[callee.module]
        if site.callee in wall_tainted and not _wallclock_exempt(
            caller_module
        ):
            # Only boundary crossings into the exempt zone are news; a
            # tainted callee in a checked module is already lint-flagged
            # at its own direct wall-clock call.
            if _wallclock_exempt(callee_module):
                findings.append(
                    _finding(
                        caller_module,
                        site.lineno,
                        "determinism-taint",
                        f"call into {site.callee}() reaches a wall-clock "
                        "read; engine code must take time from "
                        "SimulatedClock even through telemetry helpers",
                    )
                )
        if site.callee in rand_tainted and site.callee not in rand_direct:
            findings.append(
                _finding(
                    caller_module,
                    site.lineno,
                    "determinism-taint",
                    f"call into {site.callee}() transitively uses unseeded "
                    "global randomness; thread a seeded random.Random "
                    "instance instead",
                )
            )
        elif site.callee in rand_direct:
            findings.append(
                _finding(
                    caller_module,
                    site.lineno,
                    "determinism-taint",
                    f"call into {site.callee}() uses unseeded global "
                    "randomness; thread a seeded random.Random instance "
                    "instead",
                )
            )
    return findings


# -- crashpoint-reachability ---------------------------------------------------


def check_crashpoint_reachability(
    program: Program,
    registry: Optional[Dict[str, str]] = None,
    entry_suffixes: Sequence[str] = ENTRY_SUFFIXES,
) -> List[Finding]:
    """Every registered crashpoint is instrumented *and* reachable."""
    if registry is None:
        from repro.chaos.crashpoints import CRASHPOINTS

        registry = CRASHPOINTS
    # instrumented sites: name -> [(function qualname, lineno)].
    sites: Dict[str, List[Tuple[str, int]]] = {}
    for qualname, info in program.functions.items():
        for node in _own_nodes(info.node):
            if (
                isinstance(node, ast.Call)
                and _call_tail(node) == "crashpoint"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                sites.setdefault(node.args[0].value, []).append(
                    (qualname, node.lineno)
                )

    roots: List[str] = []
    for qualname, info in program.functions.items():
        module = program.modules[info.module]
        if not any(_endswith(module, suffix) for suffix in entry_suffixes):
            continue
        if not info.is_public:
            continue
        if info.cls is not None and info.cls.rpartition(".")[2].startswith("_"):
            continue
        roots.append(qualname)
    reachable = program.reachable_from(sorted(roots), kinds=(CALL, REF, LEXICAL))

    registry_module = next(
        (
            mod
            for mod in program.modules.values()
            if _endswith(mod, "chaos/crashpoints.py")
        ),
        None,
    )
    findings: List[Finding] = []
    for name in sorted(registry):
        here = sites.get(name)
        if not here:
            if registry_module is not None:
                findings.append(
                    _finding(
                        registry_module,
                        _registry_line(registry_module, name),
                        "crashpoint-reachability",
                        f"crashpoint {name!r} is registered but never "
                        "instrumented by a crashpoint() call — the chaos "
                        "sweep reports it covered while no code path can "
                        "hit it",
                    )
                )
            continue
        if not any(func in reachable for func, _ in here):
            func, lineno = here[0]
            info = program.functions[func]
            findings.append(
                _finding(
                    program.modules[info.module],
                    lineno,
                    "crashpoint-reachability",
                    f"crashpoint {name!r} is instrumented in {func} but "
                    "that function is not reachable from any public "
                    "FE/service/STO entrypoint",
                )
            )
    return findings


def _registry_line(module: ModuleSource, name: str) -> int:
    for lineno, line in enumerate(module.source.splitlines(), start=1):
        if f'"{name}"' in line or f"'{name}'" in line:
            return lineno
    return 1


# -- the deep runner -----------------------------------------------------------

#: check name -> callable(program) (crashpoint-reachability is special-cased).
_CHECKS = {
    "lock-order": check_lock_order,
    "crash-unwind": check_crash_unwind,
    "resource-leak": check_resource_leaks,
    "determinism-taint": check_determinism_taint,
}


def run_deep(
    paths: Sequence[Path],
    strict: bool = False,
    checks: Optional[Sequence[str]] = None,
    crashpoint_registry: Optional[Dict[str, str]] = None,
    entry_suffixes: Sequence[str] = ENTRY_SUFFIXES,
) -> List[Finding]:
    """Run the whole-program analyses over ``paths``.

    Suppressions on the flagged line (``# repro: ignore[rule]``) are
    honoured; in strict mode a suppression naming *only* deep rules that
    matched nothing is reported as ``useless-suppression``.  The
    crashpoint-reachability check runs only when the scanned tree
    contains the registry module (``chaos/crashpoints.py``) or when a
    registry is injected explicitly.
    """
    program = Program.load([Path(p) for p in paths])
    wanted = set(checks) if checks is not None else set(DEEP_RULES)
    findings: List[Finding] = []
    for name, check in _CHECKS.items():
        if name in wanted:
            findings.extend(check(program))
    if "crashpoint-reachability" in wanted:
        has_registry = crashpoint_registry is not None or any(
            _endswith(mod, "chaos/crashpoints.py")
            for mod in program.modules.values()
        )
        if has_registry:
            findings.extend(
                check_crashpoint_reachability(
                    program,
                    registry=crashpoint_registry,
                    entry_suffixes=entry_suffixes,
                )
            )
    findings = _apply_suppressions(program, findings, strict=strict)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def _apply_suppressions(
    program: Program, findings: List[Finding], strict: bool
) -> List[Finding]:
    by_relpath = {mod.relpath: mod for mod in program.modules.values()}
    used: Set[Tuple[str, int]] = set()
    kept: List[Finding] = []
    for finding in findings:
        module = by_relpath.get(finding.path)
        names = (
            module.suppressions.get(finding.line) if module is not None else None
        )
        if names is not None and ("*" in names or finding.rule in names):
            used.add((finding.path, finding.line))
            continue
        kept.append(finding)
    if strict:
        deep = set(DEEP_RULES)
        for module in program.modules.values():
            for lineno, names in sorted(module.suppressions.items()):
                explicit = names - {"*"}
                if not explicit or not explicit <= deep:
                    continue
                if (module.relpath, lineno) not in used:
                    kept.append(
                        _finding(
                            module,
                            lineno,
                            "useless-suppression",
                            "deep-analysis suppression matched no finding",
                        )
                    )
    return kept
