"""Tests for metrics snapshots, deprecated aliases and the unified reset."""

from __future__ import annotations

import dataclasses

import pytest

from repro import DB, MetricsSnapshot
from repro.lsm.config import LSMConfig
from repro.obs.registry import MetricsRegistry

from tests.conftest import key_of


def fill(db: DB, count: int = 400) -> None:
    for index in range(count):
        db.put(key_of(index), b"v" * 64)


class TestRegistry:
    def test_counters_and_gauges_separate(self) -> None:
        registry = MetricsRegistry()
        registry.add("a.ops", 3)
        registry.set_gauge("a.level", 7)
        assert registry.counter("a.ops") == 3
        assert registry.gauge("a.level") == 7
        registry.reset()
        assert registry.counter("a.ops") == 0
        assert registry.gauge("a.level") == 7  # gauges survive reset

    def test_reset_preserves_counter_type(self) -> None:
        registry = MetricsRegistry()
        registry.add("t.time_us", 1.5)
        registry.add("t.ops", 2)
        registry.reset()
        assert isinstance(registry.counter("t.time_us"), float)
        assert isinstance(registry.counter("t.ops"), int)

    def test_component_view(self) -> None:
        registry = MetricsRegistry()
        registry.add("engine.puts", 5)
        registry.add("cache.hits", 2)
        snap = MetricsSnapshot.capture(registry, t_us=0.0)
        assert snap.component("engine") == {"puts": 5}


class TestSnapshot:
    def test_capture_and_headline_properties(self, tiny_config: LSMConfig) -> None:
        db = DB(config=tiny_config, policy="ldc")
        fill(db)
        snap = db.metrics()
        assert isinstance(snap, MetricsSnapshot)
        assert snap.t_us == pytest.approx(db.clock.now())
        assert snap.total_bytes_written > 0
        assert snap.user_bytes_written == db.registry.counter("engine.user_bytes_written")
        assert snap.write_amplification == pytest.approx(
            snap.host_bytes_written / snap.user_bytes_written
        )
        assert snap["engine.puts"] == 400

    def test_frozen(self, tiny_config: LSMConfig) -> None:
        db = DB(config=tiny_config, policy="ldc")
        snap = db.metrics()
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.t_us = 0.0  # type: ignore[misc]
        with pytest.raises(TypeError):
            snap.counters["engine.puts"] = 99  # type: ignore[index]

    def test_delta_isolates_a_phase(self, tiny_config: LSMConfig) -> None:
        db = DB(config=tiny_config, policy="ldc")
        fill(db, 200)
        before = db.metrics()
        fill(db, 200)
        after = db.metrics()
        window = after.delta(before)
        assert window["engine.puts"] == 200
        assert window.t_us == pytest.approx(after.t_us - before.t_us)
        assert window.total_bytes_written == (
            after.total_bytes_written - before.total_bytes_written
        )
        # delta with itself is all-zero
        zero = after.delta(after)
        assert all(value == 0 for _, value in zero)

    def test_delta_round_trip(self) -> None:
        base = MetricsSnapshot(t_us=10.0, counters={"a": 1, "b": 5})
        later = MetricsSnapshot(t_us=30.0, counters={"a": 4, "b": 5, "c": 2})
        diff = later.delta(base)
        assert dict(diff) == {"a": 3, "b": 0, "c": 2}
        assert diff.t_us == pytest.approx(20.0)

    def test_activity_share_sums_to_one(self, tiny_config: LSMConfig) -> None:
        db = DB(config=tiny_config, policy="ldc")
        fill(db)
        shares = db.metrics().activity_share()
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0)


class TestUnifiedReset:
    def test_reset_measurements_zeroes_every_component(
        self, tiny_config: LSMConfig
    ) -> None:
        """Regression: one reset call must zero engine, device, cache and
        policy counters consistently (they used to be reset piecemeal)."""
        config = dataclasses.replace(tiny_config, block_cache_bytes=64 * 1024)
        db = DB(config=config, policy="ldc")
        fill(db)
        for index in range(100):  # generate cache traffic too
            db.get(key_of(index))
        snap = db.metrics()
        assert snap["engine.puts"] > 0
        assert snap.total_bytes_written > 0
        assert snap.get("cache.hits") + snap.get("cache.misses") > 0
        assert any(key.startswith("policy.") for key, _ in snap)

        db.reset_measurements()
        cleared = db.metrics()
        nonzero = {key: value for key, value in cleared if value != 0}
        assert nonzero == {}, f"counters survived reset: {nonzero}"
        assert db.round_bytes == []
        assert cleared.total_bytes_written == 0
        assert cleared.cache_hit_ratio == 0.0

    def test_gauges_survive_reset(self, tiny_config: LSMConfig) -> None:
        db = DB(config=tiny_config, policy="ldc")
        fill(db)
        gauges_before = dict(db.metrics().gauges)
        db.reset_measurements()
        assert dict(db.metrics().gauges) == gauges_before
