"""Unit tests for repro.faults: the fault plan and its device hooks."""

import pytest

from repro.errors import ConfigError, SimulatedCrash
from repro.faults import FaultPlan
from repro.faults.plan import CrashSpec
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

    def test_torn_bytes(self):
        spec = CrashSpec(at_io=1, torn_fraction=0.5)
        assert spec.torn_bytes(100) == 50
        assert CrashSpec(at_io=1).torn_bytes(100) == 0

    def test_exhaustion(self):
        """The hooks consume the schedule: each fault fires once."""
        plan = FaultPlan().crash_at(3).corrupt_read(2)
        make_device(plan)
        plan.before_io(USER_READ, 10, False)
        assert plan.after_read(USER_READ, 10) == 0
        plan.before_io(USER_READ, 10, False)
        assert plan.after_read(USER_READ, 10) != 0
        assert plan.pending_corruptions == 0
        assert plan.consume_mask() != 0 and plan.consume_mask() == 0
        with pytest.raises(SimulatedCrash):
            plan.before_io(WAL_WRITE, 10, True)
        plan.before_io(WAL_WRITE, 10, True)  # disarmed
        assert plan.io_count == 4 and plan.read_count == 2

    def test_a_plan_mounts_on_one_device(self):
        """The plan holds its device's I/O counts, so it cannot count two."""
        plan = FaultPlan()
        make_device(plan)
        with pytest.raises(ConfigError, match="one device"):
            make_device(plan)


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
        plan = FaultPlan()
        device = make_device(plan)
        plain = SimulatedSSD(ENTERPRISE_PCIE)
        assert type(device) is type(plain) is SimulatedSSD
        assert device.faults is plan and plain.faults is None
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
