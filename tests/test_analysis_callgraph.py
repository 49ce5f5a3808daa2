"""Call-graph tests on synthetic package fixtures.

Covers the resolver features the deep analyses depend on: call cycles,
re-exports through ``__init__``, decorated/nested functions, and method
dispatch via annotations, constructors, ``self.attr`` types, and
forward-reference string annotations without an import.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import Program


def write_tree(root: Path, files: dict) -> Path:
    """Write ``{relpath: source}`` under ``root`` and return the package."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root / "pkg"


@pytest.fixture
def program(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "pkg/__init__.py": """
                from pkg.core import run
            """,
            "pkg/core.py": """
                from pkg.util import Owner, Pool, helper


                def deco(fn):
                    return fn


                @deco
                def decorated():
                    return helper()


                def run():
                    decorated()
                    return ping()


                def ping():
                    return pong()


                def pong():
                    return ping()


                def outer():
                    def inner():
                        return 1
                    return inner()


                def uses_pool():
                    p = Pool()
                    return p.acquire()


                def uses_annotated(p: Pool):
                    return p.acquire()


                def uses_owner(o: Owner):
                    return o.use()
            """,
            "pkg/util.py": """
                def helper():
                    return 1


                class Pool:
                    def acquire(self):
                        return 1


                class SubPool(Pool):
                    pass


                class Owner:
                    def __init__(self, pool: Pool):
                        self.pool = pool

                    def use(self):
                        return self.pool.acquire()


                def uses_sub(p: SubPool):
                    return p.acquire()
            """,
            "pkg/fwd.py": """
                class Holder:
                    def __init__(self, engine: "Engine"):
                        self._engine = engine

                    def go(self):
                        return self._engine.start()
            """,
            "pkg/engine.py": """
                class Engine:
                    def start(self):
                        return 1
            """,
            "pkg/reexp.py": """
                from pkg import run


                def via_reexport():
                    return run()
            """,
        },
    )
    return Program.load([pkg])


def edges(program, caller):
    return {s.callee for s in program.calls if s.caller == caller}


def test_plain_and_decorated_calls_resolve(program):
    assert "pkg.core.decorated" in edges(program, "pkg.core.run")
    assert "pkg.util.helper" in edges(program, "pkg.core.decorated")


def test_call_cycle_is_navigable_both_ways(program):
    assert "pkg.core.pong" in edges(program, "pkg.core.ping")
    assert "pkg.core.ping" in edges(program, "pkg.core.pong")
    callers = program.transitive_callers(["pkg.core.pong"])
    assert {"pkg.core.ping", "pkg.core.run", "pkg.reexp.via_reexport"} <= callers


def test_reexport_resolves_to_defining_module(program):
    assert "pkg.core.run" in edges(program, "pkg.reexp.via_reexport")


def test_nested_function_call_resolves(program):
    # The nested def shadows module scope inside its enclosing function.
    assert edges(program, "pkg.core.outer") == {"pkg.core.outer.inner"}


def test_constructor_inferred_local_dispatch(program):
    assert "pkg.util.Pool.acquire" in edges(program, "pkg.core.uses_pool")
    # Constructor call itself links to __init__ when one exists.
    assert "pkg.util.Owner.__init__" not in edges(program, "pkg.core.uses_pool")


def test_annotated_param_dispatch_and_base_walk(program):
    assert "pkg.util.Pool.acquire" in edges(program, "pkg.core.uses_annotated")
    # SubPool has no own acquire; dispatch walks to the base class.
    assert "pkg.util.Pool.acquire" in edges(program, "pkg.util.uses_sub")


def test_self_attr_type_from_annotated_param(program):
    # Owner.__init__ stores ``self.pool = pool`` (pool: Pool) and
    # Owner.use dispatches through it.
    assert "pkg.util.Pool.acquire" in edges(program, "pkg.util.Owner.use")
    assert "pkg.util.Owner.use" in edges(program, "pkg.core.uses_owner")


def test_forward_reference_annotation_without_import(program):
    # "Engine" is a string annotation with no import anywhere in fwd.py;
    # the unique-class fallback still types self._engine.
    assert "pkg.engine.Engine.start" in edges(program, "pkg.fwd.Holder.go")


def test_unresolved_calls_record_trailing_name(program):
    program_unresolved = program.unresolved.get("pkg.core.run", set())
    assert "decorated" not in program_unresolved
