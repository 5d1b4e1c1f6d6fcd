"""The write path before it went one frame deep, kept as a test oracle.

Until the write path was flattened, a put crossed six Python frames before
its memtable insert: ``DB.put`` validated through ``_check_open`` /
``_check_key``, drew its sequence from ``_next_sequence`` and its record
from ``put_record``; ``_apply_write`` notified the policy on every write,
called ``_maybe_stall`` (which read Level 0's length itself), charged the
memtable insert through ``clock.advance`` and called the maintenance poll
(then ``DB._maintenance_step``, now ``sched.on_operation``, which tests the
idle gate itself) whatever the gate said.  The log built one ``_Unit``
object and a one-record list per append, behind an ``_append_unit`` frame.

Those routines live on here, verbatim in behaviour, as the reference
``tests/test_write_equivalence.py`` pair-runs the flattened path against:
the same clock to the bit, the same counters, the same log image.
``install(db)`` swaps a store's log for the unit-list one; ``put`` /
``delete`` / ``write_batch`` below then drive it as the old methods did.
"""

from __future__ import annotations

import zlib
from typing import List

from repro.errors import CorruptionError, SimulatedCrash
from repro.lsm.db import _check_key
from repro.lsm.record import KIND_DELETE, KVRecord, delete_record, put_record
from repro.lsm.stats import ACT_WAL_KEY, ACT_WRITE_KEY
from repro.ssd.device import SimulatedSSD
from repro.ssd.flash import WAL_STREAM_OWNER
from repro.ssd.metrics import WAL_READ, WAL_WRITE

from repro.lsm.wal import CTR_TORN_DROPPED


class _Unit:
    """One durable append unit: a single record or a whole batch."""

    __slots__ = ("records", "nbytes", "torn_bytes", "complete")

    def __init__(self, records: List[KVRecord], nbytes: int) -> None:
        self.records = records
        self.nbytes = nbytes
        self.torn_bytes = 0
        self.complete = False


class UnitWriteAheadLog:
    """The unit-list log: every append, single or batch, is one ``_Unit``."""

    def __init__(self, device: SimulatedSSD) -> None:
        self._device = device
        self._units: List[_Unit] = []
        self._bytes = 0

    def append(self, record: KVRecord) -> float:
        return self._append_unit([record], record[4])

    def append_batch(self, records: List[KVRecord], total_bytes: int) -> float:
        return self._append_unit(list(records), total_bytes)

    def _append_unit(self, records: List[KVRecord], nbytes: int) -> float:
        unit = _Unit(records, nbytes)
        self._units.append(unit)
        self._bytes += nbytes
        try:
            elapsed = self._device.write(
                nbytes, WAL_WRITE, sequential=True,
                owner=WAL_STREAM_OWNER, stream=True,
            )
        except SimulatedCrash as crash:
            unit.torn_bytes = min(crash.torn_bytes, nbytes)
            self._bytes -= nbytes - unit.torn_bytes
            raise
        unit.complete = True
        return elapsed

    @property
    def unflushed_bytes(self) -> int:
        return self._bytes

    @property
    def unflushed_count(self) -> int:
        return sum(len(u.records) for u in self._units if u.complete)

    @property
    def has_torn_tail(self) -> bool:
        return any(not u.complete for u in self._units)

    def reset(self) -> None:
        self._units = []
        self._bytes = 0
        self._device.trim(WAL_STREAM_OWNER)

    def recover(self) -> List[KVRecord]:
        if self._bytes > 0:
            self._device.read(self._bytes, WAL_READ, sequential=True)
            mask = self._device.consume_read_corruption()
            if mask:
                expected = self.checksum()
                raise CorruptionError(
                    f"WAL replay checksum mismatch: stored 0x{expected:08x}, "
                    f"read 0x{expected ^ mask:08x}"
                )
        records: List[KVRecord] = []
        dropped = 0
        for unit in self._units:
            if unit.complete:
                records.extend(unit.records)
            else:
                dropped += 1
        if dropped:
            self._device.registry.add(CTR_TORN_DROPPED, dropped)
        return records

    def checksum(self) -> int:
        crc = 0
        for unit in self._units:
            if unit.complete:
                for record in unit.records:
                    crc = zlib.crc32(repr(record).encode(), crc)
        return crc


def install(db) -> None:
    """Give ``db`` the unit-list log (a store with its WAL enabled)."""
    if db._wal is not None:
        db._wal = UnitWriteAheadLog(db.device)


def put(db, key: bytes, value: bytes) -> None:
    """The old ``DB.put``."""
    db._check_open()
    _check_key(key)
    if not isinstance(value, bytes):
        raise TypeError("values must be bytes")
    record = put_record(key, value, db._next_sequence())
    _apply_write(db, record)


def delete(db, key: bytes) -> None:
    """The old ``DB.delete``."""
    db._check_open()
    _check_key(key)
    record = delete_record(key, db._next_sequence())
    _apply_write(db, record)


def write_batch(db, batch) -> None:
    """The old ``DB.write_batch``."""
    db._check_open()
    records = []
    push = records.append
    next_sequence = db._next_sequence
    for key, value in batch.entries:
        _check_key(key)
        if value is None:
            push(delete_record(key, next_sequence()))
        else:
            if not isinstance(value, bytes):
                raise TypeError("values must be bytes")
            push(put_record(key, value, next_sequence()))
    if not records:
        return
    if db._bg_threads:
        db.sched.pump(db.clock._now_us)
    db.policy.on_operation(True)
    db._maybe_stall()
    total = sum(record[4] for record in records)
    if db._wal is not None:
        db._count(ACT_WAL_KEY, db._wal.append_batch(records, total))
    start = db.clock.now()
    memtable_add = db._memtable.add
    advance = db.clock.advance
    insert_us = db.config.costs.memtable_insert_us
    deletes = 0
    for record in records:
        memtable_add(record)
        advance(insert_us)
        if record[2] == KIND_DELETE:
            deletes += 1
    count = db._count
    if deletes:
        count("engine.deletes", deletes)
    if deletes != len(records):
        count("engine.puts", len(records) - deletes)
    count("engine.user_bytes_written", total)
    count(ACT_WRITE_KEY, db.clock.now() - start)
    if db._memtable.approximate_bytes >= db.config.memtable_bytes:
        db.flush()
    db.sched.on_operation()


def _apply_write(db, record: KVRecord) -> None:
    """The old ``DB._apply_write``."""
    if db._bg_threads:
        db.sched.pump(db.clock._now_us)
    db.policy.on_operation(True)
    db._maybe_stall()
    counters = db._counters
    if db._wal is not None:
        elapsed = db._wal.append(record)
        counters[ACT_WAL_KEY] = counters.get(ACT_WAL_KEY, 0) + elapsed
    clock = db.clock
    start = clock._now_us
    memtable = db._memtable
    memtable.add(record)
    clock.advance(db.config.costs.memtable_insert_us)
    if record[2] == KIND_DELETE:
        counters["engine.deletes"] = counters.get("engine.deletes", 0) + 1
    else:
        counters["engine.puts"] = counters.get("engine.puts", 0) + 1
    counters["engine.user_bytes_written"] = (
        counters.get("engine.user_bytes_written", 0) + record[4]
    )
    counters[ACT_WRITE_KEY] = counters.get(ACT_WRITE_KEY, 0) + (
        clock._now_us - start
    )
    if memtable._bytes >= db.config.memtable_bytes:
        db.flush()
    db.sched.on_operation()
