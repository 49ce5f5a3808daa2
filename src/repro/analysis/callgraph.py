"""Whole-program call graph over a package tree.

:class:`Program` parses every module under one or more roots (reusing the
framework's :class:`~repro.analysis.framework.ModuleSource` loader, so
suppression comments stay available to the deep analyses), indexes every
function, method, and class by module-qualified name, and resolves call
sites interprocedurally:

* plain and aliased imports (``import a.b as c``, ``from m import f``),
  including relative imports and *re-exports* (``from a import f`` in
  ``b`` makes ``b.f`` resolve to ``a.f``);
* ``self.method()`` / ``cls.method()`` dispatch, walking base classes;
* method dispatch on *annotated* parameters and locals (``x: Pool`` then
  ``x.acquire()``), on constructor-inferred locals (``x = Pool(...)``),
  and on ``self.attr`` whose type is inferred from class-body annotations
  or ``self.attr = Pool(...)`` assignments in any method;
* constructor calls (``Pool(...)`` adds an edge to ``Pool.__init__``).

The only edges are resolved calls: a callback handed over by reference or
a nested function is not an edge until something calls it by name.

Everything is stdlib-``ast`` only and deliberately context-insensitive:
one summary per function, unioned over call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.framework import ModuleSource, parse_suppressions


@dataclass
class ClassInfo:
    """One indexed class: bases, methods, and inferred attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    #: Base-class qualnames (best effort; unresolvable bases dropped).
    bases: List[str] = field(default_factory=list)
    #: method name -> function qualname (own methods only; MRO via lookup).
    methods: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> class qualname inferred from annotations or
    #: ``self.attr = ClassName(...)`` assignments.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str
    module: str
    name: str
    node: ast.AST
    #: Owning class qualname for methods, else None.
    cls: Optional[str] = None
    #: Lexically enclosing function qualname for nested defs, else None.
    parent: Optional[str] = None

    @property
    def lineno(self) -> int:
        """Definition line."""
        return getattr(self.node, "lineno", 1)


@dataclass(frozen=True)
class CallSite:
    """One resolved edge: ``caller`` calls ``callee`` at ``lineno``."""

    caller: str
    callee: str
    lineno: int


class Program:
    """A parsed package tree with its call graph.

    Build with :meth:`load` (directories and/or files).  Module names are
    derived from package layout: a root directory containing
    ``__init__.py`` contributes ``<rootname>.<sub>...`` modules, a bare
    file contributes its stem.
    """

    def __init__(self) -> None:
        #: module name -> parsed source.
        self.modules: Dict[str, ModuleSource] = {}
        #: module name -> local symbol -> qualified target (pre-canonical).
        self._symbols: Dict[str, Dict[str, str]] = {}
        #: function qualname -> info.
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qualname -> info.
        self.classes: Dict[str, ClassInfo] = {}
        #: every resolved call edge.
        self.calls: List[CallSite] = []
        #: per-function unresolved call names (trailing identifier only).
        self.unresolved: Dict[str, Set[str]] = {}
        self._class_name_index: Optional[Dict[str, Optional[str]]] = None

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, paths: Sequence[Path]) -> "Program":
        """Parse every ``*.py`` under ``paths`` and build the call graph."""
        program = cls()
        for root in paths:
            root = Path(root).resolve()
            program._load_root(root)
        program._index()
        program._resolve_all()
        return program

    def _load_root(self, root: Path) -> None:
        if root.is_file():
            self._load_file(root, root.stem, root.parent)
            return
        prefix = root.name if (root / "__init__.py").exists() else ""
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            parts = list(rel.parts[:-1])
            stem = rel.stem
            if stem != "__init__":
                parts.append(stem)
            modname = ".".join(([prefix] if prefix else []) + parts)
            if not modname:
                modname = root.name
            base = root if prefix else root
            self._load_file(path, modname, base)

    def _load_file(self, path: Path, modname: str, base: Path) -> None:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return
        try:
            relpath = str(path.relative_to(base.parent))
        except ValueError:
            relpath = str(path)
        self.modules[modname] = ModuleSource(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )

    # -- indexing ----------------------------------------------------------

    def _index(self) -> None:
        for modname, module in self.modules.items():
            self._symbols[modname] = self._module_symbols(modname, module.tree)
            for node in module.tree.body:
                self._index_node(modname, node, owner=None, parent=None)

    def _module_symbols(self, modname: str, tree: ast.Module) -> Dict[str, str]:
        symbols: Dict[str, str] = {}
        is_package = self.modules[modname].path.name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        symbols[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        symbols[head] = head
            elif isinstance(node, ast.ImportFrom):
                source = self._import_from_base(modname, node, is_package)
                if source is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    symbols[alias.asname or alias.name] = (
                        f"{source}.{alias.name}"
                    )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbols[node.name] = f"{modname}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                symbols[node.name] = f"{modname}.{node.name}"
        return symbols

    @staticmethod
    def _import_from_base(
        modname: str, node: ast.ImportFrom, is_package: bool
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = modname.split(".")
        if not is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > len(parts):
            return None
        if drop:
            parts = parts[:-drop]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    def _index_node(
        self,
        modname: str,
        node: ast.AST,
        owner: Optional[ClassInfo],
        parent: Optional[str],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if owner is not None and parent is None:
                qualname = f"{owner.qualname}.{node.name}"
                cls_name: Optional[str] = owner.qualname
            elif parent is not None:
                qualname = f"{parent}.{node.name}"
                cls_name = None
            else:
                qualname = f"{modname}.{node.name}"
                cls_name = None
            info = FunctionInfo(
                qualname=qualname,
                module=modname,
                name=node.name,
                node=node,
                cls=cls_name,
                parent=parent,
            )
            self.functions[qualname] = info
            if owner is not None and parent is None:
                owner.methods[node.name] = qualname
            for child in node.body:
                self._index_node(modname, child, owner=None, parent=qualname)
        elif isinstance(node, ast.ClassDef) and owner is None and parent is None:
            info = ClassInfo(
                qualname=f"{modname}.{node.name}",
                module=modname,
                name=node.name,
                node=node,
            )
            self.classes[info.qualname] = info
            for child in node.body:
                self._index_node(modname, child, owner=info, parent=None)
        elif isinstance(
            node, (ast.If, ast.Try, ast.With, ast.For, ast.While)
        ):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._index_node(modname, child, owner=owner, parent=parent)

    # -- symbol canonicalisation -------------------------------------------

    def canonical(self, qualified: str) -> Optional[str]:
        """Chase re-export aliases to a function/class/module qualname.

        Returns the canonical name when it denotes something indexed (a
        function, class, or module), else None.
        """
        seen: Set[str] = set()
        current = qualified
        while current not in seen:
            seen.add(current)
            if (
                current in self.functions
                or current in self.classes
                or current in self.modules
            ):
                return current
            head, _, tail = current.rpartition(".")
            if not head:
                return None
            # ``pkg.mod.name``: if pkg.mod is a module, follow its symbol
            # table (covers re-exports through __init__ and plain modules).
            if head in self.modules:
                target = self._symbols.get(head, {}).get(tail)
                if target is None or target == current:
                    return None
                current = target
                continue
            # ``pkg.Class.method``: resolve the class, then the method.
            head_canon = self.canonical(head)
            if head_canon is None or head_canon == head:
                return None
            current = f"{head_canon}.{tail}"
        return None

    def resolve_method(self, class_qualname: str, name: str) -> Optional[str]:
        """Look up a method on a class, walking base classes (DFS)."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None

    # -- call resolution ---------------------------------------------------

    def _resolve_all(self) -> None:
        self._link_bases()
        self._infer_attr_types()
        for info in list(self.functions.values()):
            self._resolve_function(info)

    def _link_bases(self) -> None:
        for info in self.classes.values():
            symbols = self._symbols.get(info.module, {})
            for base in info.node.bases:
                name = _dotted(base)
                if name is None:
                    continue
                head, _, rest = name.partition(".")
                target = symbols.get(head)
                if target is None:
                    continue
                full = target + ("." + rest if rest else "")
                canon = self.canonical(full)
                if canon in self.classes:
                    info.bases.append(canon)

    def _infer_attr_types(self) -> None:
        for info in self.classes.values():
            symbols = self._symbols.get(info.module, {})
            for item in info.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    cls = self._annotation_class(item.annotation, symbols)
                    if cls is not None:
                        info.attr_types[item.target.id] = cls
            for method in info.node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                param_types: Dict[str, str] = {}
                for arg in list(method.args.args) + list(
                    method.args.kwonlyargs
                ):
                    cls = self._annotation_class(arg.annotation, symbols)
                    if cls is not None:
                        param_types[arg.arg] = cls
                for node in ast.walk(method):
                    # self.attr: T = ... inside a method body.
                    if isinstance(node, ast.AnnAssign) and _is_self_attr(
                        node.target
                    ):
                        cls = self._annotation_class(node.annotation, symbols)
                        if cls is not None:
                            info.attr_types.setdefault(node.target.attr, cls)
                        continue
                    if not isinstance(node, ast.Assign):
                        continue
                    cls = None
                    if isinstance(node.value, ast.Call):
                        cls = self._call_constructs(node.value, symbols)
                    elif isinstance(node.value, ast.Name):
                        # self.attr = param, with the param annotated.
                        cls = param_types.get(node.value.id)
                    if cls is None:
                        continue
                    for target in node.targets:
                        if _is_self_attr(target):
                            info.attr_types.setdefault(target.attr, cls)

    def attr_type(self, class_qualname: str, attr: str) -> Optional[str]:
        """Inferred type of ``attr`` on a class, walking base classes."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if attr in cls.attr_types:
                return cls.attr_types[attr]
            stack.extend(cls.bases)
        return None

    def _chain_method(
        self, start_class: str, chain: List[str]
    ) -> Optional[str]:
        """Resolve ``a.b.method`` through inferred attribute types."""
        current = start_class
        for attr in chain[:-1]:
            next_cls = self.attr_type(current, attr)
            if next_cls is None:
                return None
            current = next_cls
        return self.resolve_method(current, chain[-1])

    def _annotation_class(
        self, node: Optional[ast.AST], symbols: Dict[str, str]
    ) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        # Optional[X] / "X" / X — take the first resolvable class name.
        for sub in ast.walk(node):
            name = _dotted(sub)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            target = symbols.get(head, head)
            canon = self.canonical(target + ("." + rest if rest else ""))
            if canon in self.classes:
                return canon
            # Unimported forward reference ("SqlDbEngine" as a string
            # annotation with no matching import): accept the class name
            # when it is unique program-wide.
            if not rest and head not in symbols:
                unique = self._unique_class(head)
                if unique is not None:
                    return unique
        return None

    def _unique_class(self, name: str) -> Optional[str]:
        if self._class_name_index is None:
            index: Dict[str, Optional[str]] = {}
            for qualname, info in self.classes.items():
                # Two classes sharing a name -> ambiguous -> None.
                index[info.name] = (
                    qualname if info.name not in index else None
                )
            self._class_name_index = index
        return self._class_name_index.get(name)

    def _call_constructs(
        self, call: ast.Call, symbols: Dict[str, str]
    ) -> Optional[str]:
        name = _dotted(call.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = symbols.get(head)
        if target is None:
            return None
        canon = self.canonical(target + ("." + rest if rest else ""))
        return canon if canon in self.classes else None

    def _resolve_function(self, info: FunctionInfo) -> None:
        symbols = dict(self._symbols.get(info.module, {}))
        # Sibling nested defs and own nested defs shadow module scope.
        for qualname, other in self.functions.items():
            if other.parent == info.qualname or (
                info.parent is not None and other.parent == info.parent
            ):
                symbols[other.name] = qualname
        owner = self.classes.get(info.cls) if info.cls else None
        local_types = self._local_types(info, symbols, owner)
        for stmt in getattr(info.node, "body", []):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._resolve_target(
                    node.func, info, symbols, owner, local_types
                )
                if callee is not None:
                    self.calls.append(
                        CallSite(info.qualname, callee, node.lineno)
                    )
                else:
                    tail = _trailing_name(node.func)
                    if tail is not None:
                        self.unresolved.setdefault(info.qualname, set()).add(
                            tail
                        )

    def _local_types(
        self,
        info: FunctionInfo,
        symbols: Dict[str, str],
        owner: Optional[ClassInfo],
    ) -> Dict[str, str]:
        types: Dict[str, str] = {}
        args = getattr(info.node, "args", None)
        if args is not None:
            for arg in list(args.args) + list(args.kwonlyargs):
                cls = self._annotation_class(arg.annotation, symbols)
                if cls is not None:
                    types[arg.arg] = cls
        for node in ast.walk(info.node):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cls = self._annotation_class(node.annotation, symbols)
                if cls is not None:
                    types[node.target.id] = cls
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                cls = self._call_constructs(node.value, symbols)
                if cls is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = cls
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Attribute
            ):
                value = node.value
                if (
                    owner is not None
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and value.attr in owner.attr_types
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = owner.attr_types[value.attr]
        return types

    def _resolve_target(
        self,
        node: ast.AST,
        info: FunctionInfo,
        symbols: Dict[str, str],
        owner: Optional[ClassInfo],
        local_types: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(node, ast.Name):
            target = symbols.get(node.id)
            if target is None:
                return None
            canon = self.canonical(target)
            if canon in self.functions:
                return canon
            if canon in self.classes:
                return self.resolve_method(canon, "__init__")
            return None
        if not isinstance(node, ast.Attribute):
            return None
        chain: List[str] = []
        base: ast.AST = node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        chain.reverse()
        if not isinstance(base, ast.Name):
            return None
        # self.method() / cls.method() / self.attr[...].method(): walk the
        # attribute chain through inferred attribute types.
        if base.id in ("self", "cls") and owner is not None:
            return self._chain_method(owner.qualname, chain)
        # annotated/inferred local: x.method(), x.attr.method()
        if base.id in local_types:
            return self._chain_method(local_types[base.id], chain)
        # module or imported class: mod.func(), mod.Class.method(), Cls.m()
        target = symbols.get(base.id)
        if target is None:
            return None
        canon = self.canonical(target + "." + ".".join(chain))
        if canon in self.functions:
            return canon
        if canon in self.classes:
            return self.resolve_method(canon, "__init__")
        return None


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_self_attr(node: ast.AST) -> bool:
    """Whether ``node`` is a ``self.<attr>`` attribute target."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _trailing_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
