"""Telemetry: span nesting, metrics, retries in traces, trace export."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro import Schema, Warehouse, WriteConflictError
from repro.engine.planner import TableScan
from repro.telemetry import spans as telemetry_spans
from repro.telemetry import (
    MetricsRegistry,
    chrome_trace,
    combined_chrome_trace,
    spans_to_jsonl,
)
from repro.fe.context import recording
from tests.conftest import small_config


def traced_warehouse() -> Warehouse:
    config = small_config()
    config.telemetry.enabled = True
    return Warehouse(config=config, auto_optimize=False)


def ids(n, start=0):
    return {
        "id": np.arange(start, start + n, dtype=np.int64),
        "v": np.arange(start, start + n) * 1.0,
    }


@pytest.fixture
def dw() -> Warehouse:
    return traced_warehouse()


@pytest.fixture
def tsession(dw):
    session = dw.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")), distribution_column="id"
    )
    return session


def spans_by_name(dw, name):
    return [s for s in dw.telemetry.spans if s.name == name]


def span_index(dw):
    return {s.span_id: s for s in dw.telemetry.spans}


class TestSpanNesting:
    def test_statement_nests_under_transaction(self, dw, tsession):
        tsession.insert("t", ids(50))
        txn_spans = [s for s in dw.telemetry.spans if s.name == "txn"]
        assert txn_spans, "no transaction spans recorded"
        by_id = span_index(dw)
        stmts = [s for s in dw.telemetry.spans if s.name == "stmt.insert"]
        assert stmts
        for stmt in stmts:
            assert by_id[stmt.parent_id].name == "txn"

    def test_dcp_tasks_nest_under_statement_chain(self, dw, tsession):
        tsession.insert("t", ids(50))
        by_id = span_index(dw)
        tasks = [s for s in dw.telemetry.spans if s.category == "dcp.task"]
        assert tasks, "no DCP task spans"
        for task in tasks:
            # task -> dcp.dag -> stmt.* -> txn
            chain = []
            node = task
            while node.parent_id is not None:
                node = by_id[node.parent_id]
                chain.append(node.name)
            assert "dcp.dag" in chain
            assert "txn" in chain
            assert task.track.startswith("node:")
            assert task.tid >= 1

    def test_storage_spans_nest_inside_tasks(self, dw, tsession):
        tsession.insert("t", ids(50))
        by_id = span_index(dw)
        stores = [s for s in dw.telemetry.spans if s.category == "storage"]
        assert stores
        in_task = [
            s
            for s in stores
            if s.parent_id is not None
            and by_id[s.parent_id].category == "dcp.task"
        ]
        assert in_task, "no storage spans attributed to DCP tasks"
        for span in in_task:
            parent = by_id[span.parent_id]
            assert span.start >= parent.start - 1e-9
            assert span.track == parent.track

    def test_commit_span_attributes(self, dw, tsession):
        tsession.insert("t", ids(10))
        txn_spans = [
            s for s in spans_by_name(dw, "txn") if s.attributes.get("commit_seq")
        ]
        assert txn_spans
        assert all(s.status == "ok" for s in txn_spans)

    def test_rollback_marks_span(self, dw, tsession):
        tsession.begin()
        tsession.insert("t", ids(10))
        tsession.rollback()
        assert any(s.status == "rollback" for s in spans_by_name(dw, "txn"))
        assert dw.telemetry.metrics.value("txn.rollbacks") == 1

    def test_conflict_loser_span_failed_not_dropped(self, dw, tsession):
        tsession.insert("t", ids(100))
        a, b = dw.session(), dw.session()
        a.begin()
        b.begin()
        from repro import BinOp, Col, Lit

        a.delete("t", BinOp("==", Col("id"), Lit(1)))
        b.delete("t", BinOp("==", Col("id"), Lit(90)))
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        statuses = sorted(s.status for s in spans_by_name(dw, "txn"))
        assert "error" in statuses, "loser's span was dropped"
        losers = [s for s in spans_by_name(dw, "txn") if s.status == "error"]
        assert losers[0].attributes["error.type"] == "WriteConflictError"
        assert (
            dw.telemetry.metrics.value(
                "txn.commit_failures", error="WriteConflictError"
            )
            == 1
        )


class TestRetriesInTrace:
    def test_injected_fault_appears_as_retry_event(self, dw, tsession):
        # Arm a one-shot fault on the manifest flush the insert will do.
        dw.store.faults.arm("manifest", operation="commit_block_list")
        tsession.insert("t", ids(20))
        metrics = dw.telemetry.metrics
        assert metrics.value("storage.retry_attempts", label="manifest_flush") >= 1
        assert (
            metrics.value(
                "storage.retry_outcomes", label="manifest_flush", outcome="ok"
            )
            >= 1
        )
        assert metrics.value("storage.faults_injected", op="commit_block_list") >= 1
        retry_events = [
            e for s in dw.telemetry.spans for e in s.events if e.name == "retry"
        ]
        assert retry_events, "retry not visible in the trace"
        assert retry_events[0].attributes["error"] == "TransientStorageError"
        fault_events = [
            e
            for s in dw.telemetry.spans
            for e in s.events
            if e.name == "storage.fault"
        ]
        assert fault_events


class TestMetrics:
    def test_counters_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits", kind="a").inc()
        registry.counter("hits", kind="a").inc(2)
        registry.counter("hits", kind="b").inc()
        assert registry.value("hits", kind="a") == 3
        assert registry.value("hits", kind="b") == 1
        assert registry.values("hits") == {"hits{kind=a}": 3, "hits{kind=b}": 1}

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4)
        registry.gauge("depth").add(-1)
        assert registry.value("depth") == 3

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        summary = h.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0 and summary["max"] == 100.0
        assert abs(summary["p50"] - 50.5) < 1.5
        assert abs(summary["p95"] - 95.0) < 1.5
        assert abs(summary["p99"] - 99.0) < 1.5

    def test_store_operations_view_reads_the_io_meter(self, dw, tsession):
        tsession.insert("t", ids(50))
        tsession.query(TableScan("t", ["id", "v"]))
        meter = dw.store.meter
        assert meter is dw.telemetry.meter
        rows = dw.context.introspection.rows("sys.dm_store_operations")
        assert {row["operation"]: row["requests"] for row in rows} == meter.requests
        assert meter.requests["get"] > 0 and meter.requests["put"] > 0
        for row in rows:
            assert row["latency_count"] == row["requests"]

    def test_report_object_store_line_reads_the_io_meter(self, dw, tsession):
        tsession.insert("t", ids(50))
        tsession.query(TableScan("t", ["id", "v"]))
        meter = dw.store.meter
        line = (
            f"object store: {meter.total_requests} requests, "
            f"{meter.bytes_read} B read, {meter.bytes_written} B written"
        )
        assert meter.bytes_read > 0 and meter.bytes_written > 0
        assert line in dw.context.introspection.report().splitlines()

    def test_latency_never_double_booked(self, dw, tsession):
        tsession.insert("t", ids(50))
        metrics = dw.telemetry.metrics
        clock_booked = sum(
            v
            for k, v in metrics.values("storage.sim_latency_s").items()
            if "mode=clock" in k
        )
        timeline_booked = sum(
            v
            for k, v in metrics.values("storage.sim_latency_s").items()
            if "mode=node_timeline" in k
        )
        assert clock_booked > 0
        assert timeline_booked > 0
        # The clock only ever advanced by the clock-mode charges (plus task
        # makespans); the timeline-mode charges were modeled, not applied.
        assert clock_booked <= dw.clock.now + 1e-9


class TestExport:
    def test_chrome_trace_shape(self, dw, tsession):
        tsession.insert("t", ids(50))
        doc = dw.telemetry.export_chrome()
        events = doc["traceEvents"]
        x = [e for e in events if e["ph"] == "X"]
        assert x
        for event in x:
            assert {"name", "cat", "pid", "tid", "ts", "dur"} <= event.keys(), event
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        assert {"txn", "statement", "dcp.task", "storage"} <= {e["cat"] for e in x}
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "FE / coordinator" in names
        assert any(n.startswith("DCP node") for n in names)
        json.dumps(doc)  # must be serializable

    def test_jsonl_round_trip(self, dw, tsession):
        tsession.insert("t", ids(10))
        lines = spans_to_jsonl(dw.telemetry.spans).splitlines()
        assert len(lines) == len(dw.telemetry.spans)
        parsed = [json.loads(line) for line in lines]
        assert all("span_id" in p and "name" in p for p in parsed)

    def test_combined_trace_disjoint_pids(self, dw, tsession):
        tsession.insert("t", ids(10))
        other = traced_warehouse()
        s2 = other.session()
        s2.create_table(
            "u", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id",
        )
        s2.insert("u", ids(10))
        doc = combined_chrome_trace(
            [("a:", dw.telemetry.spans), ("b:", other.telemetry.spans)]
        )
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        a_pids = {e["pid"] for e in meta if e["args"]["name"].startswith("a:")}
        b_pids = {e["pid"] for e in meta if e["args"]["name"].startswith("b:")}
        assert a_pids and b_pids and not (a_pids & b_pids)


class TestDisabled:
    def test_no_spans_when_disabled(self, session, simple_table, warehouse):
        assert warehouse.telemetry.tracing is False
        assert warehouse.telemetry.spans == []
        assert warehouse.telemetry.current_span is None

    def test_span_cap_drops_not_grows(self, monkeypatch):
        monkeypatch.setattr(telemetry_spans, "MAX_SPANS", 5)
        config = small_config()
        config.telemetry.enabled = True
        dw = Warehouse(config=config, auto_optimize=False)
        session = dw.session()
        session.create_table(
            "t", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id",
        )
        session.insert("t", ids(50))
        assert len(dw.telemetry.spans) == 5
        assert dw.telemetry.tracer.dropped > 0


class TestRecording:
    def test_dropped_warehouses_stay_recorded(self):
        """The scope holds what it recorded: a deployment its creator
        dropped is still there, through any number of collections."""
        with recording() as contexts:
            for _ in range(3):
                Warehouse(config=small_config(), auto_optimize=False)
            gc.collect()
        assert len(contexts) == 3
        assert all(c.introspection.report() for c in contexts)

    def test_recorded_contexts_keep_creation_order(self):
        Warehouse(config=small_config(), auto_optimize=False)  # not recorded
        with recording() as outer:
            first = Warehouse(config=small_config(), auto_optimize=False)
            with recording() as inner:
                second = Warehouse(config=small_config(), auto_optimize=False)
        Warehouse(config=small_config(), auto_optimize=False)  # not recorded
        # Identity, not dataclass equality: each entry is the live context.
        assert [id(c) for c in outer] == [id(first.context), id(second.context)]
        assert [id(c) for c in inner] == [id(second.context)]


class TestStoSpans:
    def test_background_jobs_traced(self, dw, tsession):
        for start in range(0, 60, 20):
            tsession.insert("t", ids(20, start=start))
        txn = dw.context.sqldb.begin()
        try:
            from repro.sqldb import system_tables as st

            tid = st.find_table_by_name(txn, "t")["table_id"]
        finally:
            txn.abort()
        dw.sto.run_compaction(tid, trigger="manual")
        dw.sto.run_checkpoint(tid)
        dw.clock.advance(10_000.0)
        dw.sto.run_gc()
        categories = [s for s in dw.telemetry.spans if s.category == "sto"]
        names = {s.name for s in categories}
        assert {"sto.compaction", "sto.checkpoint", "sto.gc"} <= names
        metrics = dw.telemetry.metrics
        assert sum(metrics.values("sto.compactions").values()) == 1
        assert metrics.value("sto.checkpoints") == 1
        assert metrics.value("sto.gc_runs") == 1

    def test_bus_events_mirrored(self, dw, tsession):
        tsession.insert("t", ids(10))
        metrics = dw.telemetry.metrics
        assert metrics.value("bus.events", topic="txn.committed") >= 1
        events = [
            e
            for s in dw.telemetry.spans
            for e in s.events
            if e.name == "event:txn.committed"
        ]
        assert events
