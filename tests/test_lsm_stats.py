"""Tests for engine statistics and the activity breakdown (Table I input)."""

import pytest

from repro.lsm.stats import (
    ACT_COMPACTION,
    ACT_FLUSH,
    ACT_READ,
    ACT_WAL,
    ACT_WRITE,
    EngineStats,
)


class TestActivityAccounting:
    def test_charge_accumulates(self):
        stats = EngineStats()
        stats.charge_activity(ACT_COMPACTION, 10.0)
        stats.charge_activity(ACT_COMPACTION, 5.0)
        assert stats.activity_time_us[ACT_COMPACTION] == 15.0

    def test_total(self):
        stats = EngineStats()
        stats.charge_activity(ACT_WRITE, 1.0)
        stats.charge_activity(ACT_READ, 3.0)
        assert stats.total_activity_time_us == 4.0

    def test_share_normalised(self):
        stats = EngineStats()
        stats.charge_activity(ACT_COMPACTION, 60.0)
        stats.charge_activity(ACT_FLUSH, 20.0)
        stats.charge_activity(ACT_WAL, 10.0)
        stats.charge_activity(ACT_WRITE, 10.0)
        share = stats.activity_share()
        assert share[ACT_COMPACTION] == pytest.approx(0.6)
        assert sum(share.values()) == pytest.approx(1.0)

    def test_share_empty(self):
        assert EngineStats().activity_share() == {}

    def test_counters_start_at_zero(self):
        stats = EngineStats()
        assert stats.puts == 0
        assert stats.link_count == 0
        assert stats.merge_count == 0
        assert stats.stall_time_us == 0.0


class TestRoundGranularity:
    def test_empty_histogram(self):
        stats = EngineStats()
        assert stats.max_round_bytes == 0
        assert stats.round_bytes_percentile(99) == 0

    def test_record_and_percentiles(self):
        stats = EngineStats()
        for nbytes in (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000):
            stats.record_round(nbytes)
        assert stats.max_round_bytes == 1000
        assert stats.round_bytes_percentile(50) == 500
        assert stats.round_bytes_percentile(100) == 1000

    def test_rounds_tracked_by_engine(self):
        from repro import DB
        from repro.lsm.config import LSMConfig

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
        import random

        rng = random.Random(3)
        for index in range(3000):
            db.put(str(rng.randrange(800)).zfill(12).encode(), b"v" * 40)
        assert len(db.engine_stats.round_bytes) > 0
        assert db.engine_stats.max_round_bytes > 0
        # Every recorded round moved real compaction bytes.
        assert all(nbytes > 0 for nbytes in db.engine_stats.round_bytes)
        assert sum(db.engine_stats.round_bytes) <= (
            db.device.stats.compaction_bytes_total
        )
