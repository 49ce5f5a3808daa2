"""Seeded-violation fixtures for each whole-program analysis.

Every analysis gets a fixture that must fire and a variant (fix or
suppression) that must stay quiet, proving both halves of the detector.
"""

import textwrap
from pathlib import Path

from repro.analysis.callgraph import Program
from repro.analysis.deep_rules import (
    DEEP_RULES,
    check_crash_unwind,
    check_determinism_taint,
    check_lock_order,
    check_resource_leaks,
    run_deep,
)


def write_tree(root: Path, files: dict) -> Path:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root / "pkg"


def load(tmp_path, files):
    return Program.load([write_tree(tmp_path, files)])


def rules_of(findings):
    return [f.rule for f in findings]


# -- lock-order ----------------------------------------------------------------


def test_lock_order_cycle_detected(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/locks.py": """
                def take_ab(a_lock, b_lock):
                    with a_lock.held():
                        with b_lock.held():
                            pass


                def take_ba(a_lock, b_lock):
                    with b_lock.held():
                        with a_lock.held():
                            pass
            """,
        },
    )
    findings = check_lock_order(program)
    assert any("cycle" in f.message for f in findings)
    assert all(f.rule == "lock-order" for f in findings)


def test_lock_order_reentrant_and_inversion(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/locks.py": """
                def reentrant(commit_lock):
                    with commit_lock.held():
                        with commit_lock.held():
                            pass


                def inverted(pool_lock, gateway_lock):
                    with pool_lock.held():
                        with gateway_lock.held():
                            pass
            """,
        },
    )
    messages = [f.message for f in check_lock_order(program)]
    assert any("already held" in m for m in messages)
    assert any("inverts the canonical lock order" in m for m in messages)


def test_lock_order_interprocedural_edge(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                from pkg.b import grab_inner


                def outer(commit_lock, other_lock):
                    with commit_lock.held():
                        grab_inner(other_lock)
            """,
            "pkg/b.py": """
                def grab_inner(other_lock):
                    with other_lock.held():
                        pass


                def reverse(other_lock, commit_lock):
                    with other_lock.held():
                        with commit_lock.held():
                            pass
            """,
        },
    )
    # commit_lock -> other_lock (via the call) and other_lock ->
    # commit_lock (direct) close a cycle only visible interprocedurally.
    findings = check_lock_order(program)
    assert any("cycle" in f.message for f in findings)


def test_lock_order_consistent_order_clean(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/locks.py": """
                def one(gateway_lock, pool_lock):
                    with gateway_lock.held():
                        with pool_lock.held():
                            pass


                def two(gateway_lock, pool_lock):
                    with gateway_lock.held():
                        with pool_lock.held():
                            pass
            """,
        },
    )
    assert check_lock_order(program) == []


# -- crash-unwind --------------------------------------------------------------

_SWALLOWER = """
    def risky():
        try:
            crashpoint("x")
            return work()
        except BaseException:{suppress}
            return None
"""


def test_crash_unwind_swallow_detected(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/engine.py": _SWALLOWER.format(suppress=""),
        },
    )
    findings = check_crash_unwind(program)
    assert rules_of(findings) == ["crash-unwind"]
    assert "returns" in findings[0].message


def test_crash_unwind_caller_of_crashpoint_also_checked(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/inner.py": """
                def unsafe_op():
                    crashpoint("deep.site")
            """,
            "pkg/outer.py": """
                from pkg.inner import unsafe_op


                def caller():
                    try:
                        unsafe_op()
                    except:
                        pass
            """,
        },
    )
    findings = check_crash_unwind(program)
    assert any(f.path.endswith("outer.py") for f in findings)


def test_crash_unwind_reraise_and_exception_handler_clean(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/engine.py": """
                def reraises():
                    try:
                        crashpoint("x")
                    except BaseException:
                        cleanup()
                        raise


                def exception_only():
                    try:
                        crashpoint("x")
                    except Exception:
                        return None
            """,
        },
    )
    # ``except Exception`` cannot catch SimulatedCrash, so only an
    # actually-catching handler that fails to re-raise is a violation.
    assert check_crash_unwind(program) == []


def test_crash_unwind_suppression_honoured(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/engine.py": _SWALLOWER.format(
                suppress="  # repro: ignore[crash-unwind]"
            ),
        },
    )
    assert run_deep([pkg], checks=["crash-unwind"]) == []


# -- resource-leak -------------------------------------------------------------


def test_resource_leak_missing_release(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                def leaky(pool):
                    session = pool.acquire("tenant")
                    return None
            """,
        },
    )
    findings = check_resource_leaks(program)
    assert rules_of(findings) == ["resource-leak"]
    assert "gateway-session" in findings[0].message


def test_resource_leak_error_path_only(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                def err(pool):
                    session = pool.acquire("tenant")
                    work(session)
                    pool.release(session)
            """,
        },
    )
    findings = check_resource_leaks(program)
    assert len(findings) == 1
    assert "error path" in findings[0].message


def test_resource_leak_finally_release_clean(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                def safe(pool):
                    session = pool.acquire("tenant")
                    try:
                        return work(session)
                    finally:
                        pool.release(session)
            """,
        },
    )
    assert check_resource_leaks(program) == []


def test_resource_leak_released_through_helper(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                def finish_up(pool, session):
                    pool.release(session)


                def delegates(pool):
                    session = pool.acquire("tenant")
                    try:
                        return work(session)
                    finally:
                        finish_up(pool, session)
            """,
        },
    )
    # finish_up's summary says it releases its ``session`` parameter, so
    # the hand-off in the finally counts as the release.
    assert check_resource_leaks(program) == []


def test_resource_leak_passing_to_non_releasing_helper_still_leaks(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                def observe(pool, session):
                    return session


                def still_leaky(pool):
                    session = pool.acquire("tenant")
                    observe(pool, session)
                    return None
            """,
        },
    )
    assert rules_of(check_resource_leaks(program)) == ["resource-leak"]


def test_resource_leak_contextmanager_yield_lends_not_escapes(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                from contextlib import contextmanager


                def hands_off(store):
                    pending = store.start("SELECT 1", "select")
                    yield pending


                @contextmanager
                def scoped(store):
                    pending = store.start("SELECT 1", "select")
                    try:
                        yield pending
                    finally:
                        store.finish(pending)


                @contextmanager
                def leaky_scope(store):
                    leaked = store.start("SELECT 1", "select")
                    yield leaked
            """,
        },
    )
    # A plain generator hands its token to the consumer; a context
    # manager resumes after the yield and still owes the release.
    findings = check_resource_leaks(program)
    assert rules_of(findings) == ["resource-leak"]
    assert "'leaked'" in findings[0].message


def test_resource_leak_discarded_acquire(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                def drops(store):
                    store.start("SELECT 1", "select")
            """,
        },
    )
    findings = check_resource_leaks(program)
    assert len(findings) == 1
    assert "immediately" in findings[0].message


def test_resource_leak_suppression_honoured(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/svc.py": textwrap.dedent(
                """
                def leaky(pool):
                    session = pool.acquire("t")  # repro: ignore[resource-leak]
                    return None
                """
            ),
        },
    )
    assert run_deep([pkg], checks=["resource-leak"]) == []


# -- determinism-taint ---------------------------------------------------------


def test_wallclock_taint_across_module_boundary(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/telemetry/__init__.py": "",
            "pkg/telemetry/helpers.py": """
                import time


                def stamp():
                    return time.time()
            """,
            "pkg/engine.py": """
                from pkg.telemetry.helpers import stamp


                def work():
                    return stamp()
            """,
        },
    )
    findings = check_determinism_taint(program)
    assert any(
        f.rule == "determinism-taint" and "wall-clock" in f.message
        for f in findings
    )
    assert any(f.path.endswith("engine.py") for f in findings)


def test_randomness_taint_transitive(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/util.py": """
                import random


                def roll():
                    return random.random()


                def wrapper():
                    return roll()
            """,
            "pkg/engine.py": """
                from pkg.util import wrapper


                def work():
                    return wrapper()
            """,
        },
    )
    findings = check_determinism_taint(program)
    assert any(
        "transitively uses unseeded" in f.message
        and f.path.endswith("engine.py")
        for f in findings
    )


def test_seeded_randomness_not_tainted(tmp_path):
    program = load(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/util.py": """
                import random


                def seeded():
                    return random.Random(42).random()
            """,
            "pkg/engine.py": """
                from pkg.util import seeded


                def work():
                    return seeded()
            """,
        },
    )
    assert check_determinism_taint(program) == []


# -- crashpoint-reachability ---------------------------------------------------


def test_crashpoint_reachability_with_injected_registry(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/entry.py": """
                from pkg.impl import do


                def public_entry():
                    return do()
            """,
            "pkg/impl.py": """
                def do():
                    crashpoint("covered.site")


                def orphan():
                    crashpoint("orphan.site")
            """,
        },
    )
    findings = run_deep(
        [pkg],
        checks=["crashpoint-reachability"],
        crashpoint_registry={
            "covered.site": "reached from the entrypoint",
            "orphan.site": "instrumented but unreachable",
        },
        entry_suffixes=("entry.py",),
    )
    assert rules_of(findings) == ["crashpoint-reachability"]
    assert "orphan.site" in findings[0].message
    assert findings[0].path.endswith("impl.py")


def test_crashpoint_reachability_skipped_without_registry(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/impl.py": """
                def orphan():
                    crashpoint("orphan.site")
            """,
        },
    )
    # No chaos/crashpoints.py in tree and no injected registry: the
    # check cannot know the registry and stays quiet.
    assert run_deep([pkg], checks=["crashpoint-reachability"]) == []


# -- runner behaviour ----------------------------------------------------------


def test_run_deep_strict_flags_useless_deep_suppression(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/clean.py": textwrap.dedent(
                """
                def fine():
                    return 1  # repro: ignore[lock-order]
                """
            ),
        },
    )
    findings = run_deep([pkg], strict=True)
    assert rules_of(findings) == ["useless-suppression"]
    # Non-strict runs tolerate the stale comment.
    assert run_deep([pkg], strict=False) == []


def test_deep_rule_names_are_registered():
    assert set(DEEP_RULES) == {
        "lock-order",
        "crash-unwind",
        "resource-leak",
        "determinism-taint",
        "crashpoint-reachability",
    }
