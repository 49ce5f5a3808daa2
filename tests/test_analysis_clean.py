"""Tier-1 gate: the source tree is lint-clean under repro.analysis.

Runs the full rule set (strict mode, so stale suppressions fail too) over
``src/repro`` exactly as CI does with ``python -m repro.analysis --strict``
— a violation anywhere in the package fails the suite, keeping the
determinism/immutability/docstring disciplines enforced, not
aspirational.  This is the one place tier-1 lints the tree.
"""

from pathlib import Path

import repro
from repro.analysis.__main__ import main


PACKAGE_ROOT = Path(repro.__file__).parent


def test_cli_strict_exits_zero_on_tree(capsys):
    status = main(["--strict", str(PACKAGE_ROOT)])
    out = capsys.readouterr().out
    assert status == 0, "repro.analysis found violations in src/repro:\n" + out
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


def test_cli_rejects_unknown_rule(capsys):
    assert main(["--rules", "nope", str(PACKAGE_ROOT)]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "wallclock-purity" in out and "docstring-coverage" in out
