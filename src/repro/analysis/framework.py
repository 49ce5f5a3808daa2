"""The lint framework: findings, rules, suppressions, and the runner.

Everything here is stdlib-only (``ast`` + ``tokenize``-free line scanning)
so the linter can run in any environment the reproduction runs in.  A
:class:`Rule` inspects one parsed module at a time and yields
:class:`Finding` objects; the runner handles file discovery, suppression
comments, and report formatting.

Suppression syntax (per line, on the flagged line itself)::

    something_suspicious()  # repro: ignore[rule-name]
    other_thing()           # repro: ignore[rule-a,rule-b]

A bare ``# repro: ignore`` (no bracket list) suppresses every rule on that
line.  Suppressions naming unknown rules are themselves reported (rule
``bad-suppression``) and cannot be suppressed; in ``--strict`` mode a
suppression that suppressed nothing is reported too (``useless-suppression``)
so stale baselining comments cannot accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Matches a suppression comment; group 1 is the optional bracket list.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([^\]]*)\])?")

#: Rule names: lowercase kebab-case.
_RULE_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line: rule: message`` report line."""
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class ModuleSource:
    """One parsed module handed to every rule.

    ``relpath`` is the path rendered in findings — relative to the scan
    root when possible, so reports are stable across machines.  Rules that
    scope themselves by location (e.g. commit-lock discipline applies to
    ``fe/`` and ``sto/``) match against the POSIX form of this path.
    """

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    #: line number -> suppressed rule names ("*" means all rules).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def posix(self) -> str:
        """``relpath`` with forward slashes (for scope matching)."""
        return self.relpath.replace("\\", "/")


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name` and :attr:`description` and implement
    :meth:`check`.  Register with the :func:`register` decorator so the
    CLI and the test suite discover them.
    """

    #: Unique kebab-case identifier (used in reports and suppressions).
    name: str = ""
    #: One-line human description (shown by ``--list-rules``).
    description: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` at ``node``'s location."""
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            rule=self.name,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and add a rule to the global registry."""
    rule = rule_cls()
    if not rule.name or not _RULE_NAME_RE.match(rule.name):
        raise ValueError(f"invalid rule name {rule.name!r}")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_rule(name: str) -> Rule:
    """Look up one rule by name (``KeyError`` with a hint if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {name!r}; known rules: {known}") from None


# -- suppression parsing -------------------------------------------------------


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names suppressed on that line.

    Only genuine comment tokens count (a suppression *mentioned* in a
    docstring or string literal is inert).  The special entry ``"*"``
    suppresses every rule.  Rule-name validity is checked later (against
    the registry) so parsing stays registry-free.
    """
    out: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        listed = match.group(1)
        if listed is None:
            out[lineno] = {"*"}
        else:
            names = {part.strip() for part in listed.split(",") if part.strip()}
            out[lineno] = names or {"*"}
    return out


# -- running -------------------------------------------------------------------


def _load_module(path: Path, relpath: str) -> ModuleSource:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleSource(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )


def _iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        yield path


def lint_module(
    module: ModuleSource,
    rules: Optional[Sequence[Rule]] = None,
    strict: bool = False,
) -> List[Finding]:
    """Run ``rules`` (default: all registered) over one parsed module.

    Suppressed findings are dropped; invalid or (in strict mode) unused
    suppressions are reported as findings of their own.
    """
    active = list(rules) if rules is not None else all_rules()
    used_suppressions: Set[int] = set()
    findings: List[Finding] = []

    for rule in active:
        for finding in rule.check(module):
            suppressed = module.suppressions.get(finding.line)
            if suppressed is not None and (
                "*" in suppressed or finding.rule in suppressed
            ):
                used_suppressions.add(finding.line)
                continue
            findings.append(finding)

    for lineno, names in sorted(module.suppressions.items()):
        unknown = sorted(
            name for name in names - {"*"} if name not in _REGISTRY
        )
        if unknown:
            findings.append(
                Finding(
                    path=module.relpath,
                    line=lineno,
                    rule="bad-suppression",
                    message=(
                        "suppression names unknown rule(s): "
                        + ", ".join(unknown)
                    ),
                )
            )
        elif strict and lineno not in used_suppressions:
            findings.append(
                Finding(
                    path=module.relpath,
                    line=lineno,
                    rule="useless-suppression",
                    message="suppression comment matched no finding",
                )
            )
    return findings


def lint_source(
    source: str,
    relpath: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    strict: bool = False,
) -> List[Finding]:
    """Lint an in-memory source string (the test-fixture entry point)."""
    tree = ast.parse(source, filename=relpath)
    module = ModuleSource(
        path=Path(relpath),
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )
    return lint_module(module, rules=rules, strict=strict)


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    strict: bool = False,
) -> List[Finding]:
    """Lint every ``*.py`` file under ``paths``; findings sorted by file."""
    findings: List[Finding] = []
    for root in paths:
        root = root.resolve()
        base = root if root.is_dir() else root.parent
        for path in _iter_python_files(root):
            try:
                relpath = str(path.relative_to(base))
            except ValueError:
                relpath = str(path)
            module = _load_module(path, relpath)
            findings.extend(lint_module(module, rules=rules, strict=strict))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def format_findings(findings: Iterable[Finding]) -> str:
    """Render findings as a newline-joined ``path:line: rule: message`` report."""
    return "\n".join(finding.render() for finding in findings)


# -- shared AST helpers (used by the rules) ------------------------------------


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import random`` -> ``{"random": "random"}``;
    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from random import Random`` -> ``{"Random": "random.Random"}``.
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def resolve_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted origin name, if importable.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``"numpy.random.default_rng"``; unresolvable expressions return None.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = imports.get(node.id)
    if head is None:
        return None
    parts.append(head)
    return ".".join(reversed(parts))


def parent_chain(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    """Child -> parent mapping for lexical-ancestry checks."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def ancestors(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """Walk from ``node`` to the module root (exclusive of ``node``)."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


def call_name(node: ast.Call) -> Optional[str]:
    """The trailing identifier of a call (``a.b.c()`` -> ``"c"``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """All Call nodes under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def with_context_calls(tree: ast.Module) -> Set[int]:
    """ids of Call nodes used directly as a ``with`` context expression."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    out.add(id(item.context_expr))
    return out
