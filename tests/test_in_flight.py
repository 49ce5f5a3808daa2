"""Nothing is left in flight: what the teardown check counts and exempts.

Every deployment a test builds is checked at teardown (the autouse
``nothing_left_in_flight`` fixture in ``conftest.py``) through the same
registry recovery scavenges: each participant reports how many records
it holds in flight.
"""

import numpy as np
import pytest

from repro import PolarisConfig, Schema, Warehouse
from repro.chaos import ChaosController, RecoveryManager
from repro.common.errors import SimulatedCrash
from repro.service.gateway import Gateway
from tests.conftest import in_flight

SCHEMA = Schema.of(("id", "int64"), ("v", "float64"))


def traced_warehouse(query_store=False):
    config = PolarisConfig()
    config.distributions = 2
    config.telemetry.enabled = True
    config.telemetry.query_store_enabled = query_store
    dw = Warehouse(config=config, auto_optimize=False)
    dw.session().create_table("t", SCHEMA, distribution_column="id")
    return dw


def rows(start, n):
    return {
        "id": np.arange(start, start + n, dtype=np.int64),
        "v": np.zeros(n),
    }


def test_the_tracer_joins_the_participants_only_when_tracing():
    assert "tracer" in traced_warehouse().context.participants
    assert "tracer" not in Warehouse(auto_optimize=False).context.participants


def test_an_unended_span_is_in_flight():
    dw = traced_warehouse()
    span = dw.telemetry.start_span("probe")
    assert in_flight(dw.context) == {"tracer": 1}
    dw.telemetry.end_span(span)
    assert in_flight(dw.context) == {}
    assert dw.telemetry.spans[-1] is span


def test_an_open_transaction_keeps_only_its_root_span_open():
    dw = traced_warehouse()
    session = dw.session()
    session.begin()
    session.insert("t", rows(0, 10))
    tracer = dw.telemetry.tracer
    assert [span.name for span in tracer.open_spans.values()] == ["txn"]
    assert in_flight(dw.context) == {}
    session.rollback()
    assert tracer.inflight_count == 0


def test_a_leased_gateway_session_is_in_flight():
    dw = traced_warehouse()
    gateway = Gateway(dw.context)
    leased = gateway.pool.acquire("acme")
    assert in_flight(dw.context) == {"gateway": 1}
    gateway.pool.release(leased)
    assert in_flight(dw.context) == {}


def crash_an_insert(dw):
    with ChaosController(seed=0).arm("fe.write.before_manifest_flush"):
        with pytest.raises(SimulatedCrash):
            dw.session().sql("INSERT INTO t (id, v) VALUES (1, 1.0)")


def test_a_crashed_deployment_is_left_for_recovery():
    """The dead statement's query-store record stays in flight, and the
    deployment is not recovered: the teardown check exempts it (without
    the exemption this test fails at teardown)."""
    dw = traced_warehouse(query_store=True)
    crash_an_insert(dw)
    assert in_flight(dw.context) == {"querystore": 1}


def test_recovery_discards_open_spans_with_the_records():
    dw = traced_warehouse(query_store=True)
    crash_an_insert(dw)
    finished = list(dw.telemetry.spans)
    report = RecoveryManager(dw.context, sto=dw.sto).recover()
    assert report.scavenged["querystore"] == 1
    assert report.scavenged["tracer"] >= 1  # the in-doubt txn's root span
    assert in_flight(dw.context) == {}
    assert dw.telemetry.tracer.inflight_count == 0
    assert dw.telemetry.spans[: len(finished)] == finished
