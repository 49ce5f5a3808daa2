"""Tests for configuration validation and the event bus."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from repro import Warehouse
from repro.common.config import PolarisConfig
from repro.common.events import EventBus
from repro.common.units import human_bytes, human_seconds, mib
from repro.service import Gateway
from repro.service import gateway as service_gateway

#: Every ``PolarisConfig`` leaf field and a file outside ``tests/`` that
#: sets it.  Adding a knob means naming its caller here.
KNOB_SETTERS = {
    "storage.transient_failure_rate": "src/repro/chaos/harness.py",
    "dcp.seconds_per_million_rows":
        "benchmarks/bench_ablation_compaction_threshold.py",
    "dcp.per_file_overhead_s": "benchmarks/bench_ablation_compaction_threshold.py",
    "dcp.fixed_nodes": "benchmarks/bench_fig08_fixed_vs_elastic.py",
    "dcp.rows_per_node_million": "benchmarks/bench_fig08_fixed_vs_elastic.py",
    "sto.min_healthy_rows_per_file": "benchmarks/support.py",
    "sto.max_deleted_fraction": "benchmarks/support.py",
    "sto.checkpoint_manifest_threshold":
        "benchmarks/bench_ablation_checkpoint_interval.py",
    "sto.poll_interval_s": "benchmarks/support.py",
    "sto.retention_period_s": "src/repro/chaos/harness.py",
    "telemetry.enabled": "benchmarks/support.py",
    "telemetry.query_store_enabled": "src/repro/chaos/harness.py",
    "telemetry.wait_stats_enabled": "src/repro/chaos/harness.py",
    "txn.conflict_granularity": "benchmarks/bench_ablation_conflict_granularity.py",
    "rows_per_cell": "benchmarks/support.py",
    "row_group_size": "benchmarks/e2e/workloads/sql_point_lookup.py",
    "distributions": "benchmarks/support.py",
    "seed": "src/repro/chaos/harness.py",
}


def _leaf_fields(config, prefix=""):
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, f"{prefix}{field.name}.")
        else:
            yield prefix + field.name


class TestConfig:
    def test_defaults_validate(self):
        PolarisConfig().validate()

    def test_rejects_bad_granularity(self):
        config = PolarisConfig()
        config.txn.conflict_granularity = "row"
        with pytest.raises(ValueError, match="granularity"):
            config.validate()

    def test_rejects_bad_isolation(self, warehouse):
        with pytest.raises(ValueError, match="isolation"):
            warehouse.session().begin(isolation="read-uncommitted")

    def test_rejects_zero_distributions(self):
        config = PolarisConfig()
        config.distributions = 0
        with pytest.raises(ValueError, match="distributions"):
            config.validate()

    def test_rejects_zero_rows_per_cell(self):
        config = PolarisConfig()
        config.rows_per_cell = 0
        with pytest.raises(ValueError, match="rows_per_cell"):
            config.validate()

    def test_file_granularity_accepted(self):
        config = PolarisConfig()
        config.txn.conflict_granularity = "file"
        config.validate()

    def test_positional_config_is_rejected_not_ignored(self):
        """``Warehouse(config)`` binds the config to ``database``: it must
        fail loudly rather than deploy with defaults under a config-named
        database."""
        config = PolarisConfig()
        config.telemetry.query_store_enabled = True
        with pytest.raises(TypeError, match="database"):
            Warehouse(config)
        with pytest.raises(TypeError, match="database"):
            Warehouse("")
        with pytest.raises(TypeError, match="config"):
            Warehouse("dw", {"seed": 1})
        assert Warehouse("dw", config).telemetry.querystore is not None

    @pytest.mark.parametrize(
        "path, value",
        [
            ("dcp.rows_per_node_million", 0),
            ("dcp.rows_per_node_million", math.inf),
            ("distributions", 2.5),
            ("row_group_size", 0),
            ("rows_per_cell", 2.5),
            ("storage.transient_failure_rate", 1.5),
            ("dcp.per_file_overhead_s", -1),
            ("dcp.seconds_per_million_rows", math.nan),
            ("dcp.fixed_nodes", 0),
            ("sto.poll_interval_s", math.nan),
            ("sto.retention_period_s", math.inf),
            ("sto.max_deleted_fraction", 1.5),
            ("sto.min_healthy_rows_per_file", -1),
            ("sto.checkpoint_manifest_threshold", 0),
            ("seed", 0.5),
        ],
    )
    def test_warehouse_rejects_out_of_range_knob(self, path, value):
        """Unchecked, each of these fails late (a ``ZeroDivisionError``
        on the first elastic load, a compaction never due) or silently
        mis-simulates, so building the warehouse rejects it."""
        config = PolarisConfig()
        section, __, name = path.rpartition(".")
        setattr(getattr(config, section) if section else config, name, value)
        with pytest.raises(ValueError, match=re.escape(path)):
            Warehouse(config=config)

    def test_zero_dispatch_interval_is_valid(self, monkeypatch):
        monkeypatch.setattr(service_gateway, "DISPATCH_INTERVAL_S", 0.0)
        dw = Warehouse(config=PolarisConfig(), auto_optimize=False)
        gateway = Gateway(dw.context)
        requests = [
            gateway.submit("tenant_a", "transactional", lambda s: None)
            for __ in range(3)
        ]
        gateway.run()
        assert [r.status for r in requests] == ["completed"] * 3
        assert dw.clock.now == 0.0

    def test_every_section_rejects_unknown_names(self):
        """A misspelt knob fails loudly instead of setting nothing."""
        config = PolarisConfig()
        sections = [config] + [
            getattr(config, name)
            for name in ("storage", "dcp", "sto", "txn", "telemetry")
        ]
        assert len({type(section) for section in sections}) == 6
        for section in sections:
            with pytest.raises(AttributeError):
                section.no_such_knob = True
        with pytest.raises(AttributeError):
            config.telemetry.metrics = False

    def test_every_knob_has_a_caller_outside_the_tests(self):
        """The table holds every leaf field, and each named file sets its
        field: a value only tests vary is a module constant instead."""
        assert set(KNOB_SETTERS) == set(_leaf_fields(PolarisConfig()))
        root = Path(__file__).resolve().parents[1]
        for path, setter in KNOB_SETTERS.items():
            section, __, name = path.rpartition(".")
            dotted = re.escape(f"config.{path}")
            keyword = re.escape(f"{section}__{name}") if section else "(?!)"
            assignment = re.compile(rf"\b(?:{dotted}|{keyword})\s*=(?!=)")
            text = (root / setter).read_text(encoding="utf-8")
            assert assignment.search(text), f"{setter} does not set {path}"


class TestEventBus:
    def test_publish_reaches_subscriber(self):
        bus = EventBus()
        seen = []
        bus.subscribe("topic", seen.append)
        bus.publish("topic", x=1)
        assert len(seen) == 1
        assert seen[0].payload == {"x": 1}

    def test_publish_without_subscribers(self):
        event = EventBus().publish("quiet", y=2)
        assert event.topic == "quiet"

    def test_multiple_subscribers_all_fire(self):
        bus = EventBus()
        counts = [0, 0]

        bus.subscribe("t", lambda e: counts.__setitem__(0, counts[0] + 1))
        bus.subscribe("t", lambda e: counts.__setitem__(1, counts[1] + 1))
        bus.publish("t")
        assert counts == [1, 1]

    def test_topics_are_isolated(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.publish("b")
        assert seen == []

    def test_synchronous_delivery(self):
        bus = EventBus()
        order = []
        bus.subscribe("t", lambda e: order.append("handler"))
        bus.publish("t")
        order.append("after")
        assert order == ["handler", "after"]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", seen.append)
        assert bus.unsubscribe("t", seen.append) is True
        bus.publish("t")
        assert seen == []

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", seen.append)
        assert bus.unsubscribe("t", seen.append) is True
        assert bus.unsubscribe("t", seen.append) is False
        assert bus.unsubscribe("never-subscribed", seen.append) is False

    def test_unsubscribe_leaves_other_handlers(self):
        bus = EventBus()
        kept, removed = [], []
        bus.subscribe("t", kept.append)
        bus.subscribe("t", removed.append)
        bus.unsubscribe("t", removed.append)
        bus.publish("t")
        assert len(kept) == 1 and removed == []

    def test_wildcard_sees_every_topic(self):
        bus = EventBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.publish("a", x=1)
        bus.publish("b", y=2)
        assert [e.topic for e in seen] == ["a", "b"]

    def test_wildcard_fires_after_topic_handlers(self):
        bus = EventBus()
        order = []
        bus.subscribe("*", lambda e: order.append("wildcard"))
        bus.subscribe("t", lambda e: order.append("topic"))
        bus.publish("t")
        assert order == ["topic", "wildcard"]

    def test_wildcard_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe("*", seen.append)
        assert bus.unsubscribe("*", seen.append) is True
        bus.publish("t")
        assert seen == []


class TestUnits:
    def test_mib(self):
        assert mib(1024 * 1024) == 1.0

    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2.0 KiB"
        assert "MiB" in human_bytes(5 * 1024 * 1024)

    def test_human_seconds(self):
        assert human_seconds(0.5) == "500 ms"
        assert human_seconds(30) == "30.0 s"
        assert "min" in human_seconds(600)
        assert "h" in human_seconds(10000)
