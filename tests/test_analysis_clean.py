"""Tier-1 gate: the source tree is lint-clean under repro.analysis.

Runs the full rule set (strict mode, so stale suppressions fail too) over
``src/repro`` exactly as CI does with ``python -m repro.analysis --strict``
— a violation anywhere in the package fails the suite, keeping the
determinism/immutability/commit-lock disciplines enforced, not aspirational.
"""

import time
from pathlib import Path

import repro
from repro.analysis import format_findings, lint_paths
from repro.analysis.__main__ import main


PACKAGE_ROOT = Path(repro.__file__).parent


def test_source_tree_is_lint_clean_strict():
    findings = lint_paths([PACKAGE_ROOT], strict=True)
    assert not findings, (
        "repro.analysis found violations in src/repro:\n"
        + format_findings(findings)
    )


def test_cli_strict_exits_zero_on_tree(capsys):
    assert main(["--strict", str(PACKAGE_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_exits_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        '"""Doc."""\nimport time\n\n\ndef stamp():\n'
        '    """Doc."""\n    return time.time()\n',
        encoding="utf-8",
    )
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "wallclock-purity" in out


def test_deep_analysis_clean_and_fast(capsys):
    """`--deep --strict` exits 0 on the tree, in budget.

    The wall-clock timer is the CI budget for the analyzer itself (the
    analyses model simulated time; they do not consume it), so reading
    the host clock here is the point, not a determinism leak.
    """
    start = time.monotonic()
    assert main(["--deep", "--strict", str(PACKAGE_ROOT)]) == 0
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert "lint+deep" in out
    assert elapsed < 30.0, f"deep analysis took {elapsed:.1f}s (budget 30s)"


def test_cli_rejects_unknown_rule(capsys):
    assert main(["--rules", "nope", str(PACKAGE_ROOT)]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "wallclock-purity" in out and "docstring-coverage" in out
