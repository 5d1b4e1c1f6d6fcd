"""Tests for the engine's activity breakdown (Table I input) and its
per-round byte list, read the one way anything is read: a snapshot."""

import random

import pytest

from repro import DB
from repro.lsm.config import LSMConfig
from repro.lsm.stats import (
    ACT_COMPACTION,
    ACT_COMPACTION_KEY,
    ACT_FLUSH_KEY,
    ACT_READ_KEY,
    ACT_WAL_KEY,
    ACT_WRITE_KEY,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot


def charged(*charges) -> MetricsSnapshot:
    """A snapshot of a registry after ``(key, elapsed_us)`` charges."""
    registry = MetricsRegistry()
    for key, elapsed_us in charges:
        registry.add(key, elapsed_us)
    return MetricsSnapshot.capture(registry, t_us=0.0)


class TestActivityAccounting:
    def test_charge_accumulates(self):
        snap = charged((ACT_COMPACTION_KEY, 10.0), (ACT_COMPACTION_KEY, 5.0))
        assert snap.component("engine.activity")[ACT_COMPACTION] == 15.0

    def test_total(self):
        snap = charged((ACT_WRITE_KEY, 1.0), (ACT_READ_KEY, 3.0))
        assert sum(snap.component("engine.activity").values()) == 4.0

    def test_share_normalised(self):
        share = charged(
            (ACT_COMPACTION_KEY, 60.0),
            (ACT_FLUSH_KEY, 20.0),
            (ACT_WAL_KEY, 10.0),
            (ACT_WRITE_KEY, 10.0),
        ).activity_share()
        assert share[ACT_COMPACTION] == pytest.approx(0.6)
        assert sum(share.values()) == pytest.approx(1.0)

    def test_share_empty(self):
        assert charged().activity_share() == {}

    def test_counters_start_at_zero(self):
        snap = DB().metrics()
        assert dict(snap.counters) == {}
        assert snap.get("engine.puts") == 0
        assert snap.get("engine.link_count") == 0
        assert snap.get("engine.merge_count") == 0
        assert snap.get("engine.stall_time_us") == 0.0


class TestRoundGranularity:
    def test_empty_histogram(self):
        assert DB().round_bytes == []

    def test_rounds_tracked_by_engine(self):
        db = DB(
            config=LSMConfig(
                memtable_bytes=2048,
                sstable_target_bytes=2048,
                block_bytes=512,
                fan_out=4,
                level1_capacity_bytes=4096,
            ),
            policy="udc",
        )
        rng = random.Random(3)
        for index in range(3000):
            db.put(str(rng.randrange(800)).zfill(12).encode(), b"v" * 40)
        assert len(db.round_bytes) > 0
        # Every recorded round moved real compaction bytes.
        assert all(nbytes > 0 for nbytes in db.round_bytes)
        assert sum(db.round_bytes) <= db.metrics().compaction_bytes_total
        # One reset zeroes the counters and clears the list with them.
        db.reset_measurements()
        assert db.round_bytes == []
        assert db.metrics().compaction_bytes_total == 0
