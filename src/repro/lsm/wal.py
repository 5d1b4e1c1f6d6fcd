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
* **Durable units.**  Each append (a put, a delete or a whole batch) is
  one unit.  A crash mid-append may leave a *torn* unit: the crash carries
  the number of bytes that reached the media, and the torn unit keeps
  those bytes in the log's size so recovery can detect and drop it —
  giving batches their all-or-nothing guarantee.
* **A flat image.**  Only complete units reach the record list, so the
  log is that list (every complete unit's records, in append order), a
  count of torn units and a byte total.  An append extends the list; no
  per-append object is built.
* **Charged recovery.**  :meth:`recover` charges one sequential
  ``wal_read`` of the stored bytes, counts dropped torn units under
  ``faults.torn_records_dropped``, and verifies the read against
  injected corruption, raising :class:`~repro.errors.CorruptionError` on
  a flipped-bit delivery.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

from .record import KVRecord
from ..errors import CorruptionError, SimulatedCrash
from ..ssd.device import SimulatedSSD
from ..ssd.flash import WAL_STREAM_OWNER
from ..ssd.metrics import WAL_READ, WAL_WRITE

#: Registry key counting torn (partially persisted) units dropped at recovery.
CTR_TORN_DROPPED = "faults.torn_records_dropped"


class WriteAheadLog:
    """Sequential-append log protecting the active memtable.

    ``_records`` holds every complete unit's records in append order,
    ``_torn`` counts torn units, and ``_bytes`` the bytes on media:
    complete units plus what each torn unit left (see :meth:`_tear`).
    """

    def __init__(self, device: SimulatedSSD) -> None:
        self._device = device
        self._records: List[KVRecord] = []
        self._torn = 0
        self._bytes = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, records: Sequence[KVRecord], nbytes: int) -> float:
        """Log one write — a put, a delete or a whole batch — as one
        sequential device write; returns the virtual time charged (µs).

        The write is one durable unit: recovery replays all of its
        records or none of them.
        """
        try:
            elapsed = self._device.write(
                nbytes, WAL_WRITE, sequential=True,
                owner=WAL_STREAM_OWNER, stream=True,
            )
        except BaseException as error:
            self._tear(error, nbytes)
            raise
        self._records.extend(records)
        self._bytes += nbytes
        return elapsed

    def _tear(self, error: BaseException, nbytes: int) -> None:
        """An append the device did not complete is a torn unit.

        A crash reports the bytes it left on media; any other failure
        (a full device) leaves the whole unit counted.  Recovery drops the unit either way rather than replay
        a write that was never acknowledged.
        """
        self._torn += 1
        if isinstance(error, SimulatedCrash):
            nbytes = min(error.torn_bytes, nbytes)
        self._bytes += nbytes

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def unflushed_bytes(self) -> int:
        return self._bytes

    @property
    def unflushed_count(self) -> int:
        return len(self._records)

    @property
    def has_torn_tail(self) -> bool:
        """True when the log image holds a partially persisted unit."""
        return self._torn > 0

    def reset(self) -> None:
        """Discard the log after its memtable has been durably flushed.

        Also the log's TRIM point: with a flash layer attached the dead
        log pages (and any partial-page fill remainder) are invalidated
        so GC never relocates stale WAL data.
        """
        self._records = []
        self._torn = 0
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
        if self._torn:
            self._device.registry.add(CTR_TORN_DROPPED, self._torn)
        return list(self._records)

    def checksum(self) -> int:
        """CRC32 over the durable log image (complete records, in order)."""
        crc = 0
        for record in self._records:
            crc = zlib.crc32(repr(record).encode(), crc)
        return crc
