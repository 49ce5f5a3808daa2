"""Shared fixtures: small deterministic deployments for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PolarisConfig, Schema, Warehouse
from repro.analysis.si import HistoryRecorder, check_history, format_violations
from repro.common.errors import SimulatedCrash
from repro.engine import operators
from repro.fe.context import recording
from repro.workloads.tpch import TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS

#: The four join callables ``benchmarks/e2e/trace.py::TARGETS`` resolves by
#: name (two of them timed by ``unit_*_join_ms_100k``), keyed by the short
#: names their test ids carry.
CONTRACT_JOINS = {
    "block_nl": operators.block_nested_loop_join,
    "hash": operators.hash_join,
    "index_nl": operators.index_nested_loop_join,
    "sort_merge": operators.sort_merge_join,
}


def assert_identical(candidate, reference):
    """Same columns in the same order, same dtypes, same rows *in order*
    (sorting rows first would hide a path that emits another order)."""
    assert list(candidate) == list(reference)
    for name in reference:
        assert candidate[name].dtype == reference[name].dtype, name
        assert np.array_equal(candidate[name], reference[name]), name


def small_config() -> PolarisConfig:
    """A configuration scaled for unit tests: few cells, tiny thresholds."""
    config = PolarisConfig()
    config.distributions = 4
    config.rows_per_cell = 1_000
    config.sto.min_healthy_rows_per_file = 10
    config.sto.max_deleted_fraction = 0.25
    config.sto.checkpoint_manifest_threshold = 5
    config.sto.poll_interval_s = 1.0
    config.sto.retention_period_s = 3600.0
    config.dcp.fixed_nodes = 2
    return config


def tpch_warehouse(config: PolarisConfig) -> Warehouse:
    """A warehouse holding the seeded SF 0.05 TPC-H tables."""
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    generator = TpchGenerator(scale_factor=0.05, seed=42)
    for name, batch in generator.all_tables().items():
        session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
        session.insert(name, batch)
    return dw


def in_flight(context) -> dict:
    """Participant name -> records ``context`` holds in flight, non-zero
    entries only.  The root span of a transaction still open in the
    catalog is not counted: it ends when the transaction does."""
    held = {
        name: participant.inflight_count
        for name, participant in context.participants.items()
    }
    if "tracer" in held:
        active = {txn.txid for txn in context.sqldb.active_transactions}
        held["tracer"] -= sum(
            1
            for span in context.telemetry.tracer.open_spans.values()
            if span.name == "txn" and span.attributes.get("txid") in active
        )
    return {name: count for name, count in held.items() if count}


def recoveries(context) -> float:
    """How many recovery passes ``context`` has completed."""
    return context.telemetry.metrics.value("recovery.runs")


@pytest.fixture(autouse=True)
def nothing_left_in_flight(monkeypatch):
    """Every deployment the test built holds nothing in flight at the end.

    A span, query-store record, wait scope, leased gateway session or
    running request that outlives its statement is a leak: recovery
    would scavenge it after a crash, and nothing else ever will.  A
    deployment that held records when a simulated crash was raised, and
    has not been recovered since, is exempt: the crash left them there.
    The deployments are held weakly, so the check keeps none alive.
    """
    crashed = {}
    with recording(weak=True) as created:
        raise_crash = SimulatedCrash.__init__

        def mark_crashed(error, site):
            raise_crash(error, site)
            for index, ref in enumerate(created):
                context = ref()
                if context is not None and in_flight(context):
                    crashed[index] = recoveries(context)

        monkeypatch.setattr(SimulatedCrash, "__init__", mark_crashed)
        yield
    leaks = {}
    for index, ref in enumerate(created):
        context = ref()
        if context is None or crashed.get(index) == recoveries(context):
            continue
        held = in_flight(context)
        if held:
            leaks[f"{context.database}#{index}"] = held
    assert not leaks, f"left in flight at teardown: {leaks}"


@pytest.fixture
def config() -> PolarisConfig:
    return small_config()


@pytest.fixture
def warehouse(config) -> Warehouse:
    """A fresh warehouse with autonomous optimization disabled (tests drive
    the STO explicitly unless they opt in)."""
    return Warehouse(config=config, auto_optimize=False)


@pytest.fixture
def session(warehouse):
    return warehouse.session()


@pytest.fixture
def si_sanitizer():
    """Opt-in snapshot-isolation history sanitizer (repro.analysis.si).

    Yields an ``attach(warehouse)`` callable; every attached warehouse's
    transaction history is verified against the SI axioms (first-committer
    wins, reads-from-snapshot, no lost updates) at teardown — any
    violation fails the test that opted in.
    """
    recorders = []

    def attach(warehouse) -> HistoryRecorder:
        recorder = HistoryRecorder().attach(warehouse.context.bus)
        recorders.append(recorder)
        return recorder

    yield attach
    for recorder in recorders:
        recorder.detach()
        violations = check_history(recorder.history())
        assert not violations, (
            "SI history sanitizer found violations:\n"
            + format_violations(violations)
        )


@pytest.fixture
def simple_table(session):
    """A table ``t(id int64, v float64)`` loaded with 100 rows."""
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")), distribution_column="id"
    )
    session.insert(
        "t", {"id": np.arange(100, dtype=np.int64), "v": np.arange(100) * 1.0}
    )
    return "t"
