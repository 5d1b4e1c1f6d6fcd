"""Unit tests for the write-ahead log."""

import pytest

from repro.lsm.record import delete_record, put_record
from repro.lsm.wal import WriteAheadLog
from repro.ssd.device import SimulatedSSD
from repro.ssd.metrics import WAL_WRITE
from repro.ssd.profile import ENTERPRISE_PCIE


def append(wal, record):
    """Log ``record`` as a one-record write, as a put or delete does."""
    return wal.append((record,), record.encoded_size)


@pytest.fixture
def wal():
    return WriteAheadLog(SimulatedSSD(ENTERPRISE_PCIE))


class TestWAL:
    def test_starts_empty(self, wal):
        assert wal.unflushed_bytes == 0
        assert wal.unflushed_count == 0
        assert wal.recover() == []

    def test_append_charges_device(self, wal):
        record = put_record(b"k", b"v" * 100, 1)
        elapsed = append(wal, record)
        assert elapsed > 0
        written = wal._device.registry.counter(f"device.write.{WAL_WRITE}.bytes")
        assert written == record.encoded_size

    def test_append_is_sequential_io(self, wal):
        """WAL appends get the sequential overhead discount."""
        record = put_record(b"k", b"v", 1)
        elapsed = append(wal, record)
        random_cost = wal._device.write_cost_us(record.encoded_size)
        assert elapsed < random_cost

    def test_accumulates_records(self, wal):
        records = [put_record(str(i).encode(), b"v", i) for i in range(5)]
        for record in records:
            append(wal, record)
        assert wal.unflushed_count == 5
        assert wal.unflushed_bytes == sum(r.encoded_size for r in records)
        assert wal.recover() == records

    def test_recover_preserves_order_and_tombstones(self, wal):
        a = put_record(b"a", b"1", 1)
        b = delete_record(b"a", 2)
        append(wal, a)
        append(wal, b)
        assert wal.recover() == [a, b]

    def test_reset_clears_state(self, wal):
        append(wal, put_record(b"k", b"v", 1))
        wal.reset()
        assert wal.unflushed_count == 0
        assert wal.unflushed_bytes == 0
        assert wal.recover() == []

    def test_recover_returns_copy(self, wal):
        append(wal, put_record(b"k", b"v", 1))
        recovered = wal.recover()
        recovered.clear()
        assert wal.unflushed_count == 1


class TestWALRecoveryIO:
    """Satellite: WAL replay is charged device I/O, not a free list copy."""

    def test_recover_charges_wal_read(self, wal):
        from repro.ssd.metrics import WAL_READ

        records = [put_record(str(i).encode(), b"v" * 50, i) for i in range(4)]
        for record in records:
            append(wal, record)
        stored = wal.unflushed_bytes
        assert wal._device.registry.counter(f"device.read.{WAL_READ}.bytes") == 0
        before = wal._device.clock.now()
        wal.recover()
        assert wal._device.registry.counter(f"device.read.{WAL_READ}.bytes") == stored
        assert wal._device.clock.now() > before

    def test_recover_empty_log_is_free(self, wal):
        from repro.ssd.metrics import WAL_READ

        wal.recover()
        assert wal._device.registry.counter(f"device.read.{WAL_READ}.bytes") == 0

    def test_recover_charges_on_every_call(self, wal):
        """Each simulated restart re-reads the log image."""
        from repro.ssd.metrics import WAL_READ

        append(wal, put_record(b"k", b"v", 1))
        wal.recover()
        wal.recover()
        replayed = wal._device.registry.counter(f"device.read.{WAL_READ}.bytes")
        assert replayed == 2 * wal.unflushed_bytes


class TestWALTornTails:
    """Write-ahead ordering and torn-unit handling under injected crashes."""

    def _faulty_wal(self, plan):
        return WriteAheadLog(SimulatedSSD(ENTERPRISE_PCIE, fault_plan=plan))

    def test_crashed_append_is_not_replayed(self):
        from repro.errors import SimulatedCrash
        from repro.faults.plan import FaultPlan

        wal = self._faulty_wal(FaultPlan().crash_at(2))
        first = put_record(b"a", b"1", 1)
        append(wal, first)
        with pytest.raises(SimulatedCrash):
            append(wal, put_record(b"b", b"2", 2))
        # Write-ahead ordering: the crashed record never became durable.
        assert wal.recover() == [first]

    def test_torn_append_keeps_partial_bytes_but_drops_record(self):
        from repro.errors import SimulatedCrash
        from repro.faults.plan import FaultPlan

        wal = self._faulty_wal(FaultPlan().crash_at(1, torn_fraction=0.5))
        record = put_record(b"a", b"x" * 100, 1)
        with pytest.raises(SimulatedCrash):
            append(wal, record)
        assert wal.has_torn_tail
        # Half the unit survived on media...
        assert 0 < wal.unflushed_bytes < record.encoded_size
        # ...but recovery drops the torn unit entirely.
        assert wal.recover() == []
        registry = wal._device.registry
        assert registry.counter("faults.torn_records_dropped") == 1

    def test_torn_batch_is_all_or_nothing(self):
        from repro.errors import SimulatedCrash
        from repro.faults.plan import FaultPlan

        wal = self._faulty_wal(FaultPlan().crash_at(2, torn_fraction=0.9))
        append(wal, put_record(b"a", b"1", 1))
        batch = [put_record(b"b", b"2", 2), put_record(b"c", b"3", 3)]
        total = sum(record.encoded_size for record in batch)
        with pytest.raises(SimulatedCrash):
            wal.append(batch, total)
        # The 90%-torn batch contributes no records: all-or-nothing.
        recovered = wal.recover()
        assert [record.key for record in recovered] == [b"a"]

    def test_fully_torn_write_still_dropped(self):
        """torn_fraction=1.0: all bytes hit media but the commit was lost."""
        from repro.errors import SimulatedCrash
        from repro.faults.plan import FaultPlan

        wal = self._faulty_wal(FaultPlan().crash_at(1, torn_fraction=1.0))
        record = put_record(b"a", b"x" * 40, 1)
        with pytest.raises(SimulatedCrash):
            append(wal, record)
        assert wal.unflushed_bytes == record.encoded_size
        assert wal.recover() == []

    def test_corrupted_replay_raises(self):
        from repro.errors import CorruptionError
        from repro.faults.plan import FaultPlan

        wal = self._faulty_wal(FaultPlan().corrupt_read(1))
        append(wal, put_record(b"a", b"1", 1))
        with pytest.raises(CorruptionError, match="checksum"):
            wal.recover()
