"""Write-ahead log cost model with write-ahead ordering and torn tails.

LevelDB appends every mutation to a log file before applying it to the
memtable so that a crash cannot lose acknowledged writes.  The log is
sequential-append I/O; it is reset whenever the memtable it protects is
flushed.  We model exactly that, and we model it *crash-accurately*:

* **Write-ahead ordering.**  The device write is charged first; the
  record only joins the in-memory log image once the write returns.  An
  injected crash (:class:`~repro.errors.SimulatedCrash`) during the
  append therefore leaves the log without the record — exactly what a
  real crash before the ``fsync`` does — instead of resurrecting an
  unacknowledged write at recovery.
* **Durable units.**  Each append (single record or whole batch) is one
  unit.  A crash mid-append may leave a *torn* unit: the crash carries
  the number of bytes that reached the media, and the torn unit is kept
  with its surviving byte count so recovery can detect and drop it —
  giving batches their all-or-nothing guarantee.
* **Charged recovery.**  :meth:`recover` charges one sequential
  ``wal_read`` of the stored bytes (satellite: recovery I/O is no longer
  free), counts dropped torn units under ``faults.torn_records_dropped``,
  and verifies the read against injected corruption, raising
  :class:`~repro.errors.CorruptionError` on a flipped-bit delivery.
"""

from __future__ import annotations

import zlib
from typing import List

from .record import KVRecord
from ..errors import CorruptionError, SimulatedCrash
from ..ssd.device import SimulatedSSD
from ..ssd.flash import WAL_STREAM_OWNER
from ..ssd.metrics import WAL_READ, WAL_WRITE

#: Registry key counting torn (partially persisted) units dropped at recovery.
CTR_TORN_DROPPED = "faults.torn_records_dropped"


class _Unit:
    """One durable append unit: a single record or a whole batch."""

    __slots__ = ("records", "nbytes", "torn_bytes", "complete")

    def __init__(self, records: List[KVRecord], nbytes: int) -> None:
        self.records = records
        self.nbytes = nbytes
        #: Bytes on media for a torn unit (< nbytes); only meaningful
        #: when ``complete`` is False.
        self.torn_bytes = 0
        self.complete = False


class WriteAheadLog:
    """Sequential-append log protecting the active memtable."""

    def __init__(self, device: SimulatedSSD) -> None:
        self._device = device
        self._units: List[_Unit] = []
        self._bytes = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: KVRecord) -> float:
        """Log one mutation; returns the virtual time charged (µs)."""
        return self._append_unit([record], record[4])

    def append_batch(self, records: List[KVRecord], total_bytes: int) -> float:
        """Log a whole batch as one sequential write (WriteBatch path).

        Batching amortises the per-request device overhead across the
        batch — the reason LevelDB applications group writes.  The batch
        is one durable unit: recovery replays it entirely or not at all.
        """
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
            # The write never completed; record how much of the unit the
            # crash left on media so recovery sees (and drops) the torn
            # tail rather than replaying a phantom acknowledged write.
            unit.torn_bytes = min(crash.torn_bytes, nbytes)
            self._bytes -= nbytes - unit.torn_bytes
            raise
        unit.complete = True
        return elapsed

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def unflushed_bytes(self) -> int:
        return self._bytes

    @property
    def unflushed_count(self) -> int:
        return sum(len(u.records) for u in self._units if u.complete)

    @property
    def has_torn_tail(self) -> bool:
        """True when the log image ends in a partially persisted unit."""
        return any(not u.complete for u in self._units)

    def reset(self) -> None:
        """Discard the log after its memtable has been durably flushed.

        Also the log's TRIM point: with a flash layer attached the dead
        log pages (and any partial-page fill remainder) are invalidated
        so GC never relocates stale WAL data.
        """
        self._units = []
        self._bytes = 0
        self._device.trim(WAL_STREAM_OWNER)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> List[KVRecord]:
        """Replay the log: the mutations a restart re-applies, in order.

        Charges one sequential ``wal_read`` for the stored bytes (zero
        bytes stored ⇒ no charge), drops torn units (counted under
        ``faults.torn_records_dropped``), and checks the read against
        injected corruption: a non-zero corruption mask from the device
        flips the log's checksum, surfacing as
        :class:`~repro.errors.CorruptionError`.
        """
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
        """CRC32 over the durable log image (complete units, in order)."""
        crc = 0
        for unit in self._units:
            if unit.complete:
                for record in unit.records:
                    crc = zlib.crc32(repr(record).encode(), crc)
        return crc
