"""Unit tests for repro.faults: plans and the device's fault-injection stage."""

import pytest

from repro.errors import (
    ConfigError,
    PersistentIOError,
    SimulatedCrash,
)
from repro.faults import CrashSpec, FaultPlan, FaultStage, RetryPolicy
from repro.ssd.device import SimulatedSSD
from repro.ssd.metrics import FLUSH_WRITE, USER_READ, WAL_WRITE
from repro.ssd.profile import ENTERPRISE_PCIE


def make_device(plan: FaultPlan) -> SimulatedSSD:
    return SimulatedSSD(ENTERPRISE_PCIE, fault_plan=plan)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan().crash_at(0)
        with pytest.raises(ConfigError):
            FaultPlan().crash_at(1, torn_fraction=1.5)
        with pytest.raises(ConfigError):
            FaultPlan().corrupt_read(1, mask=0)
        with pytest.raises(ConfigError):
            FaultPlan().transient(1, failures=0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)

    def test_torn_bytes(self):
        spec = CrashSpec(at_io=1, torn_fraction=0.5)
        assert spec.torn_bytes(100) == 50
        assert CrashSpec(at_io=1).torn_bytes(100) == 0

    def test_exhaustion(self):
        plan = FaultPlan().crash_at(3).corrupt_read(2).transient(5)
        assert not plan.is_exhausted()
        assert plan.take_crash(3, "x", 1) is not None
        assert plan.take_corruption(2) != 0
        assert plan.take_transient(5) == 1
        assert plan.is_exhausted()

    def test_backoff_schedule(self):
        retry = RetryPolicy(max_attempts=4, backoff_us=100.0, multiplier=2.0)
        assert retry.backoff_for_attempt(0) == 100.0
        assert retry.backoff_for_attempt(2) == 400.0


class TestCrashInjection:
    def test_global_crash_index(self):
        device = make_device(FaultPlan().crash_at(3))
        device.write(100, WAL_WRITE)
        device.read(100, USER_READ)
        with pytest.raises(SimulatedCrash) as exc_info:
            device.write(100, FLUSH_WRITE)
        assert exc_info.value.io_index == 3
        assert exc_info.value.category == FLUSH_WRITE

    def test_category_filtered_crash(self):
        """at_io counts only I/Os of the named category."""
        device = make_device(FaultPlan().crash_at(2, category=WAL_WRITE))
        device.write(10, WAL_WRITE)  # wal #1
        device.write(10, FLUSH_WRITE)  # ignored by the filter
        device.read(10, USER_READ)  # ignored by the filter
        with pytest.raises(SimulatedCrash):
            device.write(10, WAL_WRITE)  # wal #2

    def test_crash_charges_nothing(self):
        device = make_device(FaultPlan().crash_at(1))
        with pytest.raises(SimulatedCrash):
            device.write(1000, WAL_WRITE)
        assert device.clock.now() == 0.0
        assert device.wear_bytes == 0

    def test_crash_is_one_shot(self):
        device = make_device(FaultPlan().crash_at(1))
        with pytest.raises(SimulatedCrash):
            device.write(10, WAL_WRITE)
        # The plan disarmed: recovery-time I/O goes through.
        device.write(10, WAL_WRITE)
        assert device.wear_bytes == 10

    def test_torn_bytes_on_write_crash(self):
        device = make_device(FaultPlan().crash_at(1, torn_fraction=0.25))
        with pytest.raises(SimulatedCrash) as exc_info:
            device.write(100, WAL_WRITE)
        assert exc_info.value.torn_bytes == 25
        assert device.registry.counter("faults.torn_bytes") == 25

    def test_reads_never_tear(self):
        device = make_device(FaultPlan().crash_at(1, torn_fraction=0.9))
        with pytest.raises(SimulatedCrash) as exc_info:
            device.read(100, USER_READ)
        assert exc_info.value.torn_bytes == 0

    def test_crash_counted_in_registry(self):
        device = make_device(FaultPlan().crash_at(1))
        with pytest.raises(SimulatedCrash):
            device.write(10, WAL_WRITE)
        assert device.registry.counter("faults.crashes_injected") == 1


class TestTransientErrors:
    def test_retries_absorb_failures(self):
        plan = FaultPlan(RetryPolicy(max_attempts=3, backoff_us=50.0))
        plan.transient(1, failures=2)
        device = make_device(plan)
        elapsed_clean = device.write_cost_us(100)
        device.write(100, WAL_WRITE)
        # Two failed attempts charged 50 + 100 us of backoff on top.
        assert device.clock.now() == pytest.approx(elapsed_clean + 150.0)
        assert device.registry.counter("faults.transient_errors") == 2
        assert device.registry.counter("faults.retries") == 2
        assert device.wear_bytes == 100

    def test_persistent_error_when_budget_spent(self):
        plan = FaultPlan(RetryPolicy(max_attempts=2))
        plan.transient(1, failures=5)
        device = make_device(plan)
        with pytest.raises(PersistentIOError):
            device.write(100, WAL_WRITE)
        assert device.registry.counter("faults.persistent_errors") == 1
        assert device.wear_bytes == 0


class TestCorruption:
    def test_mask_delivered_once(self):
        device = make_device(FaultPlan().corrupt_read(2, mask=0xFF))
        device.read(10, USER_READ)
        assert device.consume_read_corruption() == 0
        device.read(10, USER_READ)
        assert device.consume_read_corruption() == 0xFF
        assert device.consume_read_corruption() == 0
        assert device.registry.counter("faults.corrupted_blocks") == 1

    def test_unconsumed_mask_counts_as_missed(self):
        """A decode path that skips verification is caught by the counter."""
        device = make_device(FaultPlan().corrupt_read(1))
        device.read(10, USER_READ)  # mask parked, never consumed
        device.read(10, USER_READ)  # next I/O flags the escape
        assert device.registry.counter("faults.corruptions_missed") == 1

    def test_writes_do_not_advance_read_index(self):
        device = make_device(FaultPlan().corrupt_read(1))
        device.write(10, WAL_WRITE)
        device.read(10, USER_READ)
        assert device.consume_read_corruption() != 0


class TestDelegation:
    """Nothing is delegated any more: the stage rides on the one device."""

    def test_transparent_costs_and_attrs(self):
        device = make_device(FaultPlan())
        plain = SimulatedSSD(ENTERPRISE_PCIE)
        assert type(device) is type(plain) is SimulatedSSD
        assert isinstance(device.faults, FaultStage) and plain.faults is None
        assert device.read_cost_us(100) == plain.read_cost_us(100)
        assert device.write_cost_us(100) == plain.write_cost_us(100)
        assert device.profile is plain.profile

    def test_empty_plan_charges_like_plain_device(self):
        device = make_device(FaultPlan())
        plain = SimulatedSSD(ENTERPRISE_PCIE)
        device.write(100, WAL_WRITE, sequential=True)
        device.read(200, USER_READ)
        plain.write(100, WAL_WRITE, sequential=True)
        plain.read(200, USER_READ)
        assert device.clock.now() == plain.clock.now()
        assert device.registry.counters() == plain.registry.counters()
        assert device.faults.io_count == 2
        assert device.faults.read_count == 1
        assert device.faults.category_counts == {WAL_WRITE: 1, USER_READ: 1}
        assert device.wear_bytes == plain.wear_bytes
