"""Tests for configuration validation and the event bus."""

import math

import pytest

from repro.common.config import PolarisConfig
from repro.common.events import EventBus
from repro.common.units import human_bytes, human_seconds, mib


class TestConfig:
    def test_defaults_validate(self):
        PolarisConfig().validate()

    def test_rejects_bad_granularity(self):
        config = PolarisConfig()
        config.txn.conflict_granularity = "row"
        with pytest.raises(ValueError, match="granularity"):
            config.validate()

    def test_rejects_bad_isolation(self):
        config = PolarisConfig()
        config.txn.isolation = "read-uncommitted"
        with pytest.raises(ValueError, match="isolation"):
            config.validate()

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dispatch_interval_s", math.nan),
            ("dispatch_interval_s", -1.0),
            ("dispatch_interval_s", math.inf),
            ("queue_deadline_s", math.nan),
            ("queue_deadline_s", math.inf),
            ("retry_after_base_s", math.inf),
            ("retry_after_base_s", math.nan),
            ("tokens_per_s", math.nan),
            ("token_burst", math.inf),
            ("transactional_token_cost", math.nan),
            ("analytical_token_cost", math.inf),
            ("session_idle_timeout_s", math.nan),
            ("session_idle_timeout_s", 0.0),
            ("retry_after_jitter", math.nan),
        ],
    )
    def test_validate_rejects_non_finite_service_timings(self, field, value):
        config = PolarisConfig()
        setattr(config.service, field, value)
        with pytest.raises(ValueError, match=f"service.{field}"):
            config.validate()

    def test_zero_dispatch_interval_is_valid(self):
        config = PolarisConfig()
        config.service.dispatch_interval_s = 0.0
        config.validate()


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
