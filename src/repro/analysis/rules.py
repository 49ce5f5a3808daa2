"""The repo-specific lint rules.

Each rule enforces one discipline the reproduction's correctness rests on;
``docs/ANALYSIS.md`` maps every rule to the paper section it protects.
Rules are deliberately conservative: they flag only patterns they can
resolve statically, and every flagged line accepts a
``# repro: ignore[rule]`` suppression for the rare justified exception.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.telemetry.names import SPAN_NAMES, SPAN_PREFIXES
from repro.analysis.framework import (
    Finding,
    ModuleSource,
    Rule,
    ancestors,
    call_name,
    import_map,
    iter_calls,
    parent_chain,
    register,
    resolve_name,
    with_context_calls,
)


def _in_dir(module: ModuleSource, directory: str) -> bool:
    """Whether the module lives under ``directory`` (posix path segment)."""
    posix = "/" + module.posix
    return f"/{directory}/" in posix


# -- wallclock-purity ----------------------------------------------------------

#: Wall-clock entry points that must never appear in the package.
WALLCLOCK_BANNED = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register
class WallclockPurityRule(Rule):
    """All time must flow through ``SimulatedClock``.

    Reading the datacenter wall clock anywhere in the package breaks the
    deterministic-replay contract (every experiment exactly repeatable).
    There is no exempt module: the clock and telemetry run on simulated
    time too, so no helper can launder a wall-clock read into the engine.
    """

    name = "wallclock-purity"
    description = (
        "no time.time/datetime.now/perf_counter import or call, in any module"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield every wall-clock import and call."""
        imports = import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time",
                "datetime",
            ):
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    if full in WALLCLOCK_BANNED or (
                        node.module == "datetime"
                        and f"datetime.{alias.name}.now" in WALLCLOCK_BANNED
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"import of wall-clock symbol {full!r}; all time "
                            "must flow through SimulatedClock",
                        )
            elif isinstance(node, ast.Call):
                full = resolve_name(node.func, imports)
                if full in WALLCLOCK_BANNED:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock call {full}(); use the deployment's "
                        "SimulatedClock instead",
                    )


# -- seeded-randomness ---------------------------------------------------------

#: numpy.random entry points that are seedable-by-construction.
_NUMPY_ALLOWED = {"default_rng", "Generator", "SeedSequence"}


@register
class SeededRandomnessRule(Rule):
    """All randomness must come from seeded ``random.Random`` instances.

    Module-level ``random.*`` calls share hidden global state, so two runs
    with the same config seed can diverge.  RNGs must be
    ``random.Random(seed)`` (or ``numpy.random.default_rng(seed)``)
    instances with the seed threaded from configuration.
    """

    name = "seeded-randomness"
    description = (
        "no module-level random.* calls; RNGs must be seeded "
        "random.Random instances"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield unseeded or global-state randomness usage."""
        imports = import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(
                            module,
                            node,
                            f"from random import {alias.name}: binds the "
                            "shared global RNG; import Random and seed an "
                            "instance instead",
                        )
            if not isinstance(node, ast.Call):
                continue
            full = resolve_name(node.func, imports)
            if full is None:
                continue
            if full == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed is nondeterministic; "
                        "thread a seed from config",
                    )
            elif full == "random.SystemRandom" or full.startswith(
                "random.SystemRandom."
            ):
                yield self.finding(
                    module, node, "random.SystemRandom is nondeterministic"
                )
            elif full.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"module-level {full}() uses the shared global RNG; use "
                    "a seeded random.Random instance threaded from config",
                )
            elif full.startswith("numpy.random."):
                tail = full[len("numpy.random.") :].split(".")[0]
                if tail not in _NUMPY_ALLOWED:
                    yield self.finding(
                        module,
                        node,
                        f"global-state {full}(); use "
                        "numpy.random.default_rng(seed) instead",
                    )
                elif tail == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "numpy.random.default_rng() without a seed is "
                        "nondeterministic; thread a seed from config",
                    )


# -- frozen-mutation -----------------------------------------------------------

#: Types whose instances are immutable once committed (registered set).
#: TableSnapshot is "immutable by convention" (a plain dataclass so replay
#: can build it cheaply) — the convention is exactly what this rule enforces.
FROZEN_TYPES = {
    "DataFileInfo",
    "DeletionVectorInfo",
    "AddDataFile",
    "RemoveDataFile",
    "AddDeletionVector",
    "RemoveDeletionVector",
    "TableSnapshot",
    "Checkpoint",
    "PageFile",
}

#: Methods in which a frozen type may legitimately self-initialize.
_INIT_METHODS = {"__init__", "__post_init__", "__new__", "__setstate__"}


def _annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Identifiers mentioned by a type annotation (handles Optional[...])."""
    if node is None:
        return set()
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotations: pull identifier-looking words.
            for word in sub.value.replace("[", " ").replace("]", " ").split():
                names.add(word.strip('"\' ,'))
    return names


@register
class FrozenMutationRule(Rule):
    """Committed LST structures are immutable.

    Manifest actions, snapshots, checkpoints, and page-file
    footers are shared across readers at different sequence ids; mutating
    one in place corrupts every snapshot that references it.  The rule
    flags attribute assignment and ``object.__setattr__`` on variables it
    can infer (from constructor calls or annotations) to be instances of a
    registered immutable type.
    """

    name = "frozen-mutation"
    description = (
        "no attribute assignment or object.__setattr__ on registered "
        "immutable types (manifest actions, snapshots, footers)"
    )

    def _inferred_frozen_vars(self, tree: ast.AST) -> Dict[str, str]:
        inferred: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                ctor = call_name(node.value)
                if ctor in FROZEN_TYPES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            inferred[target.id] = ctor
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                hit = _annotation_names(node.annotation) & FROZEN_TYPES
                if hit:
                    inferred[node.target.id] = sorted(hit)[0]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = list(node.args.args) + list(node.args.kwonlyargs)
                for arg in args:
                    hit = _annotation_names(arg.annotation) & FROZEN_TYPES
                    if hit:
                        inferred[arg.arg] = sorted(hit)[0]
        return inferred

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield mutations of registered immutable types."""
        inferred = self._inferred_frozen_vars(module.tree)
        parents = parent_chain(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in inferred
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"mutation of {inferred[target.value.id]}."
                            f"{target.attr}: committed LST structures are "
                            "immutable; build a new instance instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                    and node.args
                ):
                    first = node.args[0]
                    enclosing = self._enclosing_method(node, parents)
                    if isinstance(first, ast.Name) and first.id in inferred:
                        yield self.finding(
                            module,
                            node,
                            "object.__setattr__ on "
                            f"{inferred[first.id]} bypasses immutability",
                        )
                    elif (
                        isinstance(first, ast.Name)
                        and first.id == "self"
                        and enclosing is not None
                        and enclosing[0] in FROZEN_TYPES
                        and enclosing[1] not in _INIT_METHODS
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"object.__setattr__ on frozen {enclosing[0]} "
                            f"outside {sorted(_INIT_METHODS)}",
                        )

    @staticmethod
    def _enclosing_method(node: ast.AST, parents) -> Optional[tuple]:
        """(class name, method name) lexically containing ``node``, if any."""
        method: Optional[str] = None
        for ancestor in ancestors(node, parents):
            if (
                isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method is None
            ):
                method = ancestor.name
            elif isinstance(ancestor, ast.ClassDef) and method is not None:
                return (ancestor.name, method)
        return None


# -- span-discipline -----------------------------------------------------------


@register
class SpanDisciplineRule(Rule):
    """Tracer spans must be used as context managers.

    ``telemetry.span(...)`` returns a scope that closes the span on exit; a
    bare call leaks an open span and corrupts the trace tree.  Long-lived
    spans use the explicit ``start_span``/``end_span`` pair, which this
    rule leaves alone.  The telemetry implementation itself is exempt.
    """

    name = "span-discipline"
    description = "telemetry .span(...) calls only as `with` context managers"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield span-factory calls not used as context managers."""
        if _in_dir(module, "telemetry"):
            return
        allowed = with_context_calls(module.tree)
        for node in iter_calls(module.tree):
            if call_name(node) == "span" and id(node) not in allowed:
                yield self.finding(
                    module,
                    node,
                    ".span(...) outside a `with` statement leaks an open "
                    "span; use `with tel.span(...)` or start_span/end_span",
                )


# -- no-swallowed-errors -------------------------------------------------------


@register
class NoSwallowedErrorsRule(Rule):
    """Broad exception handlers must re-raise.

    A swallowed exception in a retry or commit path converts a loud
    protocol violation into silent data divergence.  Bare ``except:`` is
    always flagged; ``except Exception``/``except BaseException`` is
    flagged unless the handler body contains a ``raise``.
    """

    name = "no-swallowed-errors"
    description = (
        "no bare except: or except (Base)Exception without re-raising"
    )

    _BROAD = {"Exception", "BaseException"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield exception handlers that swallow broad exceptions."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except: swallows KeyboardInterrupt and protocol "
                    "errors alike; catch a specific exception",
                )
                continue
            broad = self._names(node.type) & self._BROAD
            if broad and not any(
                isinstance(sub, ast.Raise) for sub in ast.walk(node)
            ):
                caught = sorted(broad)[0]
                yield self.finding(
                    module,
                    node,
                    f"except {caught} without re-raising swallows errors; "
                    "re-raise or catch a specific exception",
                )

    @staticmethod
    def _names(node: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
        return out


# -- docstring-coverage --------------------------------------------------------


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_property_companion(node: ast.AST) -> bool:
    """Whether a def is a ``@x.setter``/``@x.deleter`` companion."""
    for deco in getattr(node, "decorator_list", []):
        if isinstance(deco, ast.Attribute) and deco.attr in ("setter", "deleter"):
            return True
    return False


@register
class DocstringCoverageRule(Rule):
    """Every public module, class, function, and method carries a docstring.

    Public-API hygiene reported by the same tool as the protocol
    invariants.
    """

    name = "docstring-coverage"
    description = "public modules, classes, functions and methods documented"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield undocumented public items of the module."""
        if ast.get_docstring(module.tree) is None:
            yield Finding(
                path=module.relpath,
                line=1,
                rule=self.name,
                message="module is missing a docstring",
            )
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(node.name) and ast.get_docstring(node) is None:
                    yield self.finding(
                        module, node, f"public function {node.name!r} undocumented"
                    )
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                if ast.get_docstring(node) is None:
                    yield self.finding(
                        module, node, f"public class {node.name!r} undocumented"
                    )
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if not _is_public(item.name) or _is_property_companion(item):
                        continue
                    if ast.get_docstring(item) is None:
                        yield self.finding(
                            module,
                            item,
                            f"public method {node.name}.{item.name} "
                            "undocumented",
                        )


# -- metric-naming -------------------------------------------------------------

#: Span-factory methods whose first argument names a span or span event.
_SPAN_FACTORIES = {"span", "start_span", "add_event"}


@register
class MetricNamingRule(Rule):
    """Span names are literal and registered.

    Every span or span-event name outside ``telemetry/`` is either a
    literal in :data:`repro.telemetry.names.SPAN_NAMES` or a
    ``"prefix" + expr`` concatenation whose literal prefix is registered
    in :data:`~repro.telemetry.names.SPAN_PREFIXES`.  Metric names are
    checked at runtime instead: ``MetricsRegistry`` rejects an
    unregistered name when it creates the instrument.  Span names stay
    static because only traced tests reach span sites, and task spans
    carry dynamic labels.
    """

    name = "metric-naming"
    description = (
        "span names are string literals registered in repro.telemetry.names "
        "(SPAN_NAMES / SPAN_PREFIXES)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield unregistered or dynamic span names."""
        if _in_dir(module, "telemetry"):
            return
        for call in iter_calls(module.tree):
            func = call_name(call)
            if func in _SPAN_FACTORIES:
                yield from self._check_span(module, call, func)

    def _check_span(
        self, module: ModuleSource, call: ast.Call, func: str
    ) -> Iterator[Finding]:
        arg = call.args[0] if call.args else None
        literal = _literal_str(arg) if arg is not None else None
        if literal is not None:
            if literal not in SPAN_NAMES:
                yield self.finding(
                    module,
                    call,
                    f"span/event name {literal!r} is not registered in "
                    "repro.telemetry.names.SPAN_NAMES",
                )
            return
        if (
            isinstance(arg, ast.BinOp)
            and isinstance(arg.op, ast.Add)
            and isinstance(arg.left, ast.Constant)
            and isinstance(arg.left.value, str)
        ):
            prefix = arg.left.value
            if prefix not in SPAN_PREFIXES:
                yield self.finding(
                    module,
                    call,
                    f"span-name prefix {prefix!r} is not registered in "
                    "repro.telemetry.names.SPAN_PREFIXES",
                )
            return
        yield self.finding(
            module,
            call,
            f".{func}(...) span/event name is dynamic; use a literal from "
            "SPAN_NAMES or a '<registered prefix>' + suffix concatenation",
        )


def _literal_str(node: Optional[ast.AST]) -> Optional[str]:
    """The string value of a literal node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


#: Names of the rules shipped with the framework (import side effect of
#: this module registers them; the list is for documentation/tests).
SHIPPED_RULES: List[str] = [
    "wallclock-purity",
    "seeded-randomness",
    "frozen-mutation",
    "span-discipline",
    "no-swallowed-errors",
    "docstring-coverage",
    "metric-naming",
]
