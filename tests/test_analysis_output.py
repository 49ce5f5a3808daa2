"""The analyzer's one output: ``path:line: rule: message`` text and its exit codes."""

import pytest

from repro.analysis.__main__ import main


@pytest.mark.parametrize(
    "argv",
    [
        ["--format=json"],
        ["--baseline", "b.json"],
        ["--write-baseline", "b.json"],
        ["--deep"],
    ],
)
def test_cli_has_no_machine_formats_or_baseline(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

