"""The analyzer's one output: ``path:line: rule: message`` text and its exit codes."""

import pytest

from repro.analysis.__main__ import main


@pytest.mark.parametrize(
    "argv",
    [["--format=json"], ["--baseline", "b.json"], ["--write-baseline", "b.json"]],
)
def test_cli_has_no_machine_formats_or_baseline(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_deep_flag_runs_deep_rules(tmp_path, capsys):
    leaky = tmp_path / "leaky.py"
    leaky.write_text(
        '"""Doc."""\n\n\ndef use(pool):\n    """Doc."""\n'
        '    session = pool.acquire("t")\n    return None\n',
        encoding="utf-8",
    )
    assert main(["--deep", str(leaky)]) == 1
    out = capsys.readouterr().out
    assert "resource-leak" in out
    # Restricting --rules to a lint rule keeps deep quiet.
    assert main(["--deep", "--rules", "wallclock-purity", str(leaky)]) == 0
