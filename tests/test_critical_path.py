"""The trace critical-path analyzer and its CLI.

Unit half: hand-built span forests with known critical paths, checking
self-time vs wait-time accounting, overlap handling, and the front-door
split (root wait spans are queueing, not serialization).  End-to-end
half: a 16x-concurrency commit workload traced through the service
gateway must rank ``commit_lock`` as the top serialization contributor —
the evidence the profiler exists to produce.
"""

import json

import pytest

from repro import PolarisConfig, Warehouse
from repro.service import Gateway
from repro.sqldb import locks
from repro.telemetry import (
    analyze_critical_path,
    format_critical_path_report,
    load_trace,
    top_serialization_kind,
)
from repro.telemetry.__main__ import main as telemetry_cli
from repro.workloads.service_load import ServiceLoadGenerator


def span(span_id, start, end, name="work", category="fe", parent=None, **attrs):
    return {
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "category": category,
        "start": start,
        "end": end,
        "attributes": attrs,
    }


class TestAnalyzer:
    def test_self_time_is_uncovered_time(self):
        spans = [
            span(1, 0.0, 10.0, name="request", category="service"),
            span(2, 2.0, 5.0, name="scan", category="storage", parent=1),
            span(3, 6.0, 9.0, name="scan", category="storage", parent=1),
        ]
        report = analyze_critical_path(spans)
        assert report["requests"] == 1
        assert report["critical_path_s"] == 10.0
        assert report["components"]["service"]["self_s"] == pytest.approx(4.0)
        assert report["components"]["storage"]["self_s"] == pytest.approx(6.0)

    def test_wait_spans_count_as_wait_not_self(self):
        spans = [
            span(1, 0.0, 10.0, name="request", category="service"),
            span(
                2, 3.0, 7.0,
                name="wait.commit_lock", category="wait", parent=1,
                kind="commit_lock",
            ),
        ]
        report = analyze_critical_path(spans)
        assert report["components"]["wait"]["wait_s"] == pytest.approx(4.0)
        assert report["components"]["service"]["self_s"] == pytest.approx(6.0)
        (ranked,) = report["serialization"]
        assert ranked["wait_kind"] == "commit_lock"
        assert ranked["wait_s"] == pytest.approx(4.0)
        assert top_serialization_kind(report) == "commit_lock"

    def test_overlapping_children_never_double_count(self):
        # Two children overlap [4, 6]; the chain takes the later-ending
        # one and skips the overlap, so covered time stays <= duration.
        spans = [
            span(1, 0.0, 10.0, name="request", category="service"),
            span(2, 2.0, 6.0, name="a", category="dcp", parent=1),
            span(3, 4.0, 9.0, name="b", category="dcp", parent=1),
        ]
        report = analyze_critical_path(spans)
        total = sum(
            bucket["self_s"] + bucket["wait_s"]
            for bucket in report["components"].values()
        )
        assert total <= 10.0 + 1e-9

    def test_root_wait_spans_are_front_door_not_serialization(self):
        spans = [
            span(
                1, 0.0, 8.0,
                name="wait.admission_queue", category="wait",
                kind="admission_queue",
            ),
            span(2, 8.0, 10.0, name="request", category="service"),
            span(
                3, 8.5, 9.5,
                name="wait.commit_lock", category="wait", parent=2,
                kind="commit_lock",
            ),
        ]
        report = analyze_critical_path(spans)
        assert report["requests"] == 1  # the wait root is not a request
        assert "admission_queue" in report["front_door"]
        kinds = [row["wait_kind"] for row in report["serialization"]]
        assert kinds == ["commit_lock"]

    def test_ranking_orders_by_stalled_seconds(self):
        spans = [
            span(1, 0.0, 20.0, name="request", category="service"),
            span(
                2, 1.0, 3.0,
                name="wait.storage_retry", category="wait", parent=1,
                kind="storage_retry",
            ),
            span(
                3, 5.0, 15.0,
                name="wait.commit_lock", category="wait", parent=1,
                kind="commit_lock",
            ),
        ]
        report = analyze_critical_path(spans)
        kinds = [row["wait_kind"] for row in report["serialization"]]
        assert kinds == ["commit_lock", "storage_retry"]

    def test_format_report_mentions_the_top_contributor(self):
        spans = [
            span(1, 0.0, 10.0, name="request", category="service"),
            span(
                2, 0.0, 6.0,
                name="wait.commit_lock", category="wait", parent=1,
                kind="commit_lock",
            ),
        ]
        text = format_critical_path_report(analyze_critical_path(spans))
        assert "critical-path bottleneck report" in text
        assert "commit_lock" in text


class TestLoadTrace:
    def test_skips_unfinished_spans_and_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        finished = span(1, 0.0, 1.0)
        unfinished = dict(span(2, 0.5, 1.0), end=None)
        path.write_text(
            json.dumps(finished) + "\n\n" + json.dumps(unfinished) + "\n"
        )
        spans = load_trace(str(path))
        assert [s["span_id"] for s in spans] == [1]


def run_commit_workload(monkeypatch, transactional_clients):
    """A traced trickle-insert run with a real commit hold."""
    monkeypatch.setattr(locks, "COMMIT_HOLD_S", 1.0)
    config = PolarisConfig()
    config.telemetry.enabled = True
    config.telemetry.wait_stats_enabled = True
    dw = Warehouse(config=config, auto_optimize=False)
    gateway = Gateway(dw.context, seed=0)
    generator = ServiceLoadGenerator(
        gateway,
        seed=0,
        transactional_clients=transactional_clients,
        analytical_clients=0,
        mean_think_s=2.0,
    )
    report = generator.run()
    assert report.completed > 0
    return dw


class TestEndToEnd:
    def test_16x_commit_workload_ranks_commit_lock_top(
        self, tmp_path, monkeypatch
    ):
        dw = run_commit_workload(monkeypatch, transactional_clients=16)
        trace = str(tmp_path / "trace.jsonl")
        dw.telemetry.export_jsonl(trace)
        report = analyze_critical_path(load_trace(trace))
        assert top_serialization_kind(report) == "commit_lock"
        # The stall is material, not a rounding artifact: a double-digit
        # share of all critical-path time under 16x commit concurrency.
        commit_row = report["serialization"][0]
        assert commit_row["wait_s"] > 0.1 * report["critical_path_s"]
        # Queueing ahead of execution shows up, but separately.
        assert "admission_queue" in report["front_door"]

    def test_cli_smoke(self, tmp_path, capsys, monkeypatch):
        dw = run_commit_workload(monkeypatch, transactional_clients=16)
        trace = str(tmp_path / "trace.jsonl")
        dw.telemetry.export_jsonl(trace)
        assert telemetry_cli(["--critical-path", trace]) == 0
        out = capsys.readouterr().out
        assert "serialization contributors" in out
        assert "1. commit_lock" in out

    def test_cli_json_mode(self, tmp_path, capsys, monkeypatch):
        dw = run_commit_workload(monkeypatch, transactional_clients=4)
        trace = str(tmp_path / "trace.jsonl")
        dw.telemetry.export_jsonl(trace)
        assert telemetry_cli(["--critical-path", trace, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "requests",
            "critical_path_s",
            "components",
            "serialization",
            "front_door",
        }

    def test_cli_empty_trace_exits_nonzero(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert telemetry_cli(["--critical-path", str(empty)]) == 1
