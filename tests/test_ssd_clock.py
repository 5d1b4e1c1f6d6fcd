"""Unit tests for the virtual clock, capture mode and the device channel."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceError
from repro.ssd.clock import CAPTURE_CPU, CAPTURE_IO, DeviceChannel, SimClock
from repro.ssd.device import SimulatedSSD


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_starts_at_custom_time(self):
        assert SimClock(start_us=42.5).now() == 42.5

    def test_negative_start_rejected(self):
        with pytest.raises(DeviceError):
            SimClock(start_us=-1.0)

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(10.0) == 10.0
        assert clock.advance(2.5) == 12.5

    def test_advance_zero_is_noop(self):
        clock = SimClock(start_us=5.0)
        clock.advance(0.0)
        assert clock.now() == 5.0

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(DeviceError):
            clock.advance(-0.001)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(100.0)
        assert clock.now() == 100.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(start_us=50.0)
        clock.advance_to(10.0)
        assert clock.now() == 50.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    def test_monotonicity_property(self, deltas):
        """The clock never moves backwards under any advance sequence."""
        clock = SimClock()
        last = clock.now()
        for delta in deltas:
            clock.advance(delta)
            assert clock.now() >= last
            last = clock.now()

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    def test_sum_property(self, deltas):
        clock = SimClock()
        for delta in deltas:
            clock.advance(delta)
        assert clock.now() == pytest.approx(sum(deltas), abs=1e-6)


class TestCaptureMode:
    """Capture freezes time and diverts charges (the scheduler's foundation)."""

    def test_charges_diverted_and_tagged(self):
        clock = SimClock(start_us=10.0)
        clock.begin_capture()
        assert clock.capturing
        clock.advance(5.0)
        device = SimulatedSSD(clock=clock)
        elapsed = device.write(4096, "flush_write")
        assert clock.now() == 10.0  # frozen throughout
        items = clock.end_capture()
        assert items == [(CAPTURE_CPU, 5.0, 0), (CAPTURE_IO, elapsed, 4096)]
        assert not clock.capturing

    def test_zero_charges_not_recorded(self):
        clock = SimClock()
        clock.begin_capture()
        clock.advance(0.0)
        assert clock.end_capture() == []

    def test_normal_advance_resumes_after_capture(self):
        clock = SimClock()
        clock.begin_capture()
        clock.advance(99.0)
        clock.end_capture()
        clock.advance(1.0)
        assert clock.now() == 1.0

    def test_nested_capture_rejected(self):
        clock = SimClock()
        clock.begin_capture()
        with pytest.raises(DeviceError):
            clock.begin_capture()

    def test_end_without_begin_rejected(self):
        with pytest.raises(DeviceError):
            SimClock().end_capture()

    def test_advance_to_rejected_during_capture(self):
        clock = SimClock()
        clock.begin_capture()
        with pytest.raises(DeviceError):
            clock.advance_to(100.0)

    def test_negative_advance_rejected_during_capture(self):
        clock = SimClock()
        clock.begin_capture()
        with pytest.raises(DeviceError):
            clock.advance(-1.0)


class TestDeviceChannel:
    def test_initially_free(self):
        channel = DeviceChannel()
        assert channel.wait_us(0.0) == 0.0
        assert channel.busy_until_us == 0.0

    def test_wait_behind_horizon(self):
        channel = DeviceChannel()
        channel.occupy_until(100.0)
        assert channel.wait_us(30.0) == 70.0
        assert channel.wait_us(100.0) == 0.0
        assert channel.wait_us(150.0) == 0.0

    def test_occupy_never_moves_backwards(self):
        channel = DeviceChannel()
        channel.occupy_until(100.0)
        channel.occupy_until(50.0)
        assert channel.busy_until_us == 100.0

    def test_release_drops_future_occupancy_only(self):
        channel = DeviceChannel()
        channel.occupy_until(100.0)
        channel.release(60.0)
        assert channel.busy_until_us == 60.0
        channel.release(200.0)  # past horizon: no-op
        assert channel.busy_until_us == 60.0
