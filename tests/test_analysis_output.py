"""Output-layer tests: stable IDs, JSON, SARIF 2.1.0, and the baseline ratchet."""

import json

import pytest

from repro.analysis.__main__ import main
from repro.analysis.framework import Finding
from repro.analysis.output import (
    SARIF_VERSION,
    finding_ids,
    load_baseline,
    partition_baseline,
    render,
    to_json_doc,
    to_sarif_doc,
    write_baseline,
)


def finding(path="src/repro/x.py", line=10, rule="resource-leak", message="m"):
    return Finding(path=path, line=line, rule=rule, message=message)


# -- stable IDs ----------------------------------------------------------------


def test_ids_are_line_independent():
    a = finding(line=10)
    b = finding(line=99)
    assert finding_ids([a]) == finding_ids([b])


def test_ids_distinguish_rule_path_message():
    base = finding()
    other_rule = finding(rule="determinism-taint")
    assert finding_ids([base]) != finding_ids([other_rule])
    assert finding_ids([base]) != finding_ids([finding(path="src/repro/y.py")])
    assert finding_ids([base]) != finding_ids([finding(message="other")])


def test_duplicate_findings_get_occurrence_suffix():
    ids = finding_ids([finding(line=1), finding(line=2), finding(line=3)])
    assert len(set(ids)) == 3
    assert ids[1] == f"{ids[0]}-2" and ids[2] == f"{ids[0]}-3"


# -- JSON ----------------------------------------------------------------------


def test_json_doc_round_trips_through_baseline(tmp_path):
    findings = [finding(), finding(rule="determinism-taint", message="tainted")]
    doc = to_json_doc(findings)
    assert doc["version"] == 1
    assert [f["rule"] for f in doc["findings"]] == [
        "resource-leak",
        "determinism-taint",
    ]
    path = tmp_path / "baseline.json"
    write_baseline(findings, path)
    known = load_baseline(path)
    new, old = partition_baseline(findings, known)
    assert new == [] and len(old) == 2


def test_bare_id_list_baseline_accepted(tmp_path):
    findings = [finding()]
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(finding_ids(findings)), encoding="utf-8")
    new, old = partition_baseline(findings, load_baseline(path))
    assert new == [] and len(old) == 1


def test_ratchet_fails_only_new_findings(tmp_path):
    known_finding = finding()
    path = tmp_path / "baseline.json"
    write_baseline([known_finding], path)
    fresh = finding(rule="crash-unwind", message="swallowed")
    new, old = partition_baseline(
        [known_finding, fresh], load_baseline(path)
    )
    assert [f.rule for f in new] == ["crash-unwind"]
    assert [f.rule for f in old] == ["resource-leak"]


def test_ratchet_duplicates_match_by_multiset(tmp_path):
    one = finding(line=1)
    path = tmp_path / "baseline.json"
    write_baseline([one], path)
    # Two identical findings against a baseline listing one: one is new.
    new, old = partition_baseline(
        [finding(line=1), finding(line=2)], load_baseline(path)
    )
    assert len(new) == 1 and len(old) == 1


# -- SARIF ---------------------------------------------------------------------


def test_sarif_minimum_schema_shape():
    findings = [finding(), finding(rule="determinism-taint", message="tainted")]
    doc = to_sarif_doc(findings)
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-analysis"
    assert {r["id"] for r in driver["rules"]} == {
        "resource-leak",
        "determinism-taint",
    }
    for result, expected in zip(run["results"], findings):
        assert result["ruleId"] == expected.rule
        assert result["level"] == "error"
        assert result["message"]["text"] == expected.message
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == expected.path
        assert location["region"]["startLine"] == expected.line
        assert result["partialFingerprints"]["reproAnalysis/v1"]


def test_render_dispatch():
    findings = [finding()]
    assert json.loads(render(findings, "json"))["version"] == 1
    assert json.loads(render(findings, "sarif"))["version"] == "2.1.0"
    assert "resource-leak" in render(findings, "text")


# -- CLI integration -----------------------------------------------------------


BAD_SOURCE = (
    '"""Doc."""\nimport time\n\n\ndef stamp():\n'
    '    """Doc."""\n    return time.time()\n'
)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return path


def test_cli_json_format(bad_file, capsys):
    assert main(["--format=json", str(bad_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"][0]["rule"] == "wallclock-purity"


def test_cli_sarif_format(bad_file, capsys):
    assert main(["--format=sarif", str(bad_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"][0]["ruleId"] == "wallclock-purity"


def test_cli_json_clean_tree_emits_empty_doc(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text('"""Doc."""\n', encoding="utf-8")
    assert main(["--format=json", str(clean)]) == 0
    assert json.loads(capsys.readouterr().out)["findings"] == []


def test_cli_baseline_ratchet(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(
        ["--write-baseline", str(baseline), str(bad_file)]
    ) == 0
    capsys.readouterr()
    # Baselined finding no longer fails the run.
    assert main(["--baseline", str(baseline), str(bad_file)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # A new violation alongside the baselined one fails again.
    worse = tmp_path / "worse.py"
    worse.write_text(BAD_SOURCE + "\n\nimport random\nR = random.random()\n")
    assert main(["--baseline", str(baseline), str(worse)]) == 1


def test_cli_missing_baseline_is_usage_error(bad_file, capsys):
    assert main(
        ["--baseline", "/nonexistent/baseline.json", str(bad_file)]
    ) == 2


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
