"""Unit tests for the simulated SSD device and I/O accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceError
from repro.obs.snapshot import MetricsSnapshot
from repro.ssd.clock import SimClock
from repro.ssd.device import SimulatedSSD
from repro.ssd.metrics import (
    COMPACTION_READ,
    COMPACTION_WRITE,
    FLUSH_WRITE,
    USER_READ,
    WAL_WRITE,
)
from repro.ssd.profile import SSDProfile

SIMPLE = SSDProfile(
    name="simple",
    read_bandwidth_mbps=100.0,  # 0.01 us/byte
    write_bandwidth_mbps=10.0,  # 0.1 us/byte
    read_overhead_us=5.0,
    write_overhead_us=7.0,
    sequential_discount=0.5,
)


def snapshot(ssd: SimulatedSSD) -> MetricsSnapshot:
    return MetricsSnapshot.capture(ssd.registry, ssd.clock.now())


class TestCostModel:
    def test_read_cost_formula(self):
        ssd = SimulatedSSD(SIMPLE)
        assert ssd.read_cost_us(1000) == pytest.approx(5.0 + 10.0)

    def test_write_cost_formula(self):
        ssd = SimulatedSSD(SIMPLE)
        assert ssd.write_cost_us(1000) == pytest.approx(7.0 + 100.0)

    def test_sequential_discount_applies_to_overhead_only(self):
        ssd = SimulatedSSD(SIMPLE)
        random_cost = ssd.read_cost_us(1000)
        sequential_cost = ssd.read_cost_us(1000, sequential=True)
        assert sequential_cost == pytest.approx(2.5 + 10.0)
        assert sequential_cost < random_cost

    def test_write_slower_than_read_on_asymmetric_device(self):
        """The asymmetry the paper's whole design targets."""
        ssd = SimulatedSSD(SIMPLE)
        assert ssd.write_cost_us(4096) > ssd.read_cost_us(4096)

    def test_cost_query_has_no_side_effects(self):
        ssd = SimulatedSSD(SIMPLE)
        ssd.read_cost_us(1000)
        ssd.write_cost_us(1000)
        assert ssd.clock.now() == 0.0
        assert ssd.registry.counters() == {}

    def test_negative_size_rejected(self):
        ssd = SimulatedSSD(SIMPLE)
        with pytest.raises(DeviceError):
            ssd.read(-1, USER_READ)
        with pytest.raises(DeviceError):
            ssd.write_cost_us(-5)


class TestChargedOperations:
    def test_read_advances_clock(self):
        ssd = SimulatedSSD(SIMPLE)
        elapsed = ssd.read(1000, USER_READ)
        assert ssd.clock.now() == pytest.approx(elapsed)

    def test_writes_accumulate_wear(self):
        ssd = SimulatedSSD(SIMPLE)
        ssd.write(500, FLUSH_WRITE)
        ssd.write(700, COMPACTION_WRITE)
        assert ssd.wear_bytes == 1200

    def test_reads_do_not_wear(self):
        ssd = SimulatedSSD(SIMPLE)
        ssd.read(10_000, USER_READ)
        assert ssd.wear_bytes == 0

    def test_categories_are_separated(self):
        ssd = SimulatedSSD(SIMPLE)
        ssd.read(100, USER_READ)
        ssd.read(200, COMPACTION_READ)
        ssd.write(300, WAL_WRITE)
        snap = snapshot(ssd)
        assert snap["device.read.user_read.bytes"] == 100
        assert snap["device.read.compaction_read.bytes"] == 200
        assert snap["device.write.wal_write.bytes"] == 300

    def test_shared_clock(self):
        clock = SimClock(start_us=10.0)
        ssd = SimulatedSSD(SIMPLE, clock=clock)
        ssd.read(0, USER_READ)
        assert clock.now() == pytest.approx(10.0 + SIMPLE.read_overhead_us)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            max_size=40,
        )
    )
    def test_clock_equals_sum_of_charges(self, operations):
        ssd = SimulatedSSD(SIMPLE)
        total = 0.0
        for is_write, nbytes in operations:
            if is_write:
                total += ssd.write(nbytes, FLUSH_WRITE)
            else:
                total += ssd.read(nbytes, USER_READ)
        assert ssd.clock.now() == pytest.approx(total)


class TestIOStats:
    """The device's per-category counters, and the ratios a snapshot
    derives from them (what the ``IOStats`` view used to compute)."""

    def test_write_amplification(self):
        ssd = SimulatedSSD(SIMPLE)
        ssd.write(500, FLUSH_WRITE)
        ssd.write(1500, COMPACTION_WRITE)
        ssd.registry.add("engine.user_bytes_written", 500)
        assert snapshot(ssd).write_amplification == pytest.approx(4.0)

    def test_write_amplification_zero_user_bytes(self):
        ssd = SimulatedSSD(SIMPLE)
        ssd.write(500, FLUSH_WRITE)
        assert snapshot(ssd).write_amplification == 0.0

    def test_compaction_totals(self):
        ssd = SimulatedSSD(SIMPLE)
        ssd.read(100, COMPACTION_READ)
        ssd.write(200, COMPACTION_WRITE)
        ssd.read(999, USER_READ)
        assert snapshot(ssd).compaction_bytes_total == 300

    def test_snapshot_round_trip(self):
        ssd = SimulatedSSD(SIMPLE)
        elapsed = ssd.read(64, USER_READ)
        assert snapshot(ssd).component("device.read.user_read") == {
            "ops": 1, "bytes": 64, "time_us": elapsed,
        }

    def test_time_accounting(self):
        ssd = SimulatedSSD(SIMPLE)
        read_us = ssd.read(1, USER_READ)
        write_us = ssd.write(1, WAL_WRITE)
        snap = snapshot(ssd)
        assert snap["device.read.user_read.time_us"] == pytest.approx(read_us)
        assert snap["device.write.wal_write.time_us"] == pytest.approx(write_us)
        assert snap.t_us == pytest.approx(read_us + write_us)
