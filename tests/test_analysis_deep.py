"""Seeded-violation fixtures for each whole-program analysis.

Every analysis gets a fixture that must fire and a variant (fix or
suppression) that must stay quiet, proving both halves of the detector.
"""

import textwrap
from pathlib import Path

from repro.analysis.callgraph import Program
from repro.analysis.deep_rules import (
    DEEP_RULES,
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


# -- runner behaviour ----------------------------------------------------------


def test_run_deep_strict_flags_useless_deep_suppression(tmp_path):
    pkg = write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/clean.py": textwrap.dedent(
                """
                def fine():
                    return 1  # repro: ignore[resource-leak]
                """
            ),
        },
    )
    findings = run_deep([pkg], strict=True)
    assert rules_of(findings) == ["useless-suppression"]
    # Non-strict runs tolerate the stale comment.
    assert run_deep([pkg], strict=False) == []


def test_deep_rule_names_are_registered():
    assert DEEP_RULES == ["resource-leak"]
