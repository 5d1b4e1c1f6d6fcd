"""The LSM-tree key-value store facade.

``DB`` wires together the memtable, WAL, SSTables, version set, the
simulated SSD, and a pluggable compaction policy (UDC / LDC / tiered), and
exposes the user-facing operations: :meth:`put`, :meth:`delete`,
:meth:`get` and :meth:`scan`.

**Timing model.**  Every compaction round runs in the maintenance engine
(:class:`~repro.lsm.compaction.base.MaintenanceEngine`, extended with
background threads by :mod:`repro.sched`); with the default zero threads
it is synchronous: an operation absorbs at most one due round, on the
virtual clock, before returning.  This is exactly the blocking behaviour
behind the paper's tail-latency equation (3) (``tl_w = t_compaction +
t_w``): most writes cost a WAL append plus a memtable insert, while the
occasional write absorbs a compaction round, producing the long tail
that LDC's small merges shrink.  The memtable flush goes through the
engine too: inline with zero threads, on the scheduler's flush lane with
background threads.

**Read path.**  Lookups descend memtable → Level 0 (newest file first) →
deeper levels.  Under LDC, a lower-level SSTable carries *linked slices*
of frozen upper-level files which hold newer data than the file itself, so
each level-unit consults the slices (newest link first, gated by the frozen
files' Bloom filters) before the file (§III-B.3).
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from functools import partial, reduce
from itertools import repeat
from operator import add
from typing import Iterator, List, Optional, Sequence, Tuple

from .bloom import key_hashes
from .builder import build_greedy_columns
from .cache import BlockCache
from .compaction.base import MaintenanceEngine
from .config import (
    BLOOM_CHECK_US,
    CACHE_HIT_US,
    INDEX_LOOKUP_US,
    MEMTABLE_INSERT_US,
    MEMTABLE_LOOKUP_US,
    SCAN_PER_RECORD_US,
    LSMConfig,
)
from .iterators import merge_streams
from .memtable import MemTable
from .record import (
    KIND_DELETE,
    KIND_PUT,
    RECORD_OVERHEAD_BYTES,
    KVRecord,
    _new_record,
    delete_record,
    put_record,
)
from .sstable import SSTable
from .stats import (
    ACT_READ_KEY,
    ACT_SCAN_KEY,
    ACT_WAL_KEY,
    ACT_WRITE_KEY,
)
from .version import VersionSet
from .wal import WriteAheadLog
from ..errors import ClosedError, CorruptionError, EngineError
from ..faults.plan import FaultPlan
from ..obs.events import (
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_FLUSH,
    EV_RECOVERY,
    EV_STALL,
)
from ..obs.registry import MetricsRegistry
from ..obs.snapshot import MetricsSnapshot
from ..obs.tracer import Tracer
from ..sched.scheduler import CompactionScheduler
from ..ssd.device import SimulatedSSD
from ..ssd.flash import DeviceConfig
from ..ssd.metrics import FLUSH_WRITE, USER_READ, USER_SCAN
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile


class DB:
    """An LSM-tree key-value store over a simulated SSD.

    Parameters
    ----------
    config:
        Engine geometry parameters (defaults are simulation-scale;
        see :class:`~repro.lsm.config.LSMConfig`).
    policy:
        A registered policy name (``"udc"``, ``"ldc"``, ``"tiered"``,
        ``"delayed"``, ...), a :class:`~repro.lsm.compaction.spec.
        PolicySpec`, or a pre-built policy instance; defaults to UDC.
        Unknown names raise :class:`~repro.errors.UnknownPolicyError`
        listing the registered policies.
    profile:
        Simulated device parameters; defaults to the enterprise PCIe
        profile mirroring the paper's testbed.  Accepts either a bare
        :class:`~repro.ssd.profile.SSDProfile` or a
        :class:`~repro.ssd.flash.DeviceConfig` — the latter optionally
        enables the flash/FTL layer (``DeviceConfig(flash=FlashSpec())``,
        docs/DEVICE.md), off by default.
    tracer:
        Event tracer receiving the engine's execution timeline (flushes,
        compaction rounds, links/merges, stalls, cache probes, device
        I/O).  Defaults to an inert tracer; attach a sink — or pass
        ``Tracer([RingBufferSink()])`` — to start recording.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`; when given, the
        simulated device mounts it as its fault-injection stage
        (``db.device.faults``), which injects the plan's crashes and read
        corruption, and the decode paths verify block CRCs on every
        device read.

    Example
    -------
    >>> from repro import DB
    >>> db = DB()
    >>> db.put(b"k", b"v")
    >>> db.get(b"k")
    b'v'
    """

    def __init__(
        self,
        config: Optional[LSMConfig] = None,
        policy: Optional[object] = None,
        profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
        tracer: Optional[Tracer] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        from .compaction.spec import make_policy  # registry resolution

        self.config = config if config is not None else LSMConfig()
        self.policy = make_policy(policy)
        self.registry = MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.device = SimulatedSSD(
            profile,
            registry=self.registry,
            tracer=self.tracer,
            fault_plan=fault_plan,
        )
        self.clock = self.device.clock
        if self.tracer.clock is None:
            self.tracer.clock = self.clock
        self.version = VersionSet(
            self.config, sorted_levels=self.policy.layout.sorted_levels
        )
        #: Bytes moved (read + written) by each compaction round — the
        #: *granularity* distribution behind the paper's equation (3): UDC
        #: rounds are O(fan_out) files, LDC rounds O(1).
        self.round_bytes: List[int] = []
        self._memtable = MemTable()
        self._wal = WriteAheadLog(self.device)
        self.block_cache = (
            BlockCache(self.config.block_cache_bytes, registry=self.registry)
            if self.config.block_cache_bytes > 0
            else None
        )
        self._next_seq = 1
        self._next_file_id = 1
        self._closed = False
        # Counter bumps off the per-operation path (a flush, a stall, a
        # scan's totals) are one registry add ...
        self._count = self.registry.add
        # ... and the per-operation ones (engine.gets, block reads, the
        # activity charges) bump the raw counter dict in place:
        # registry.reset zeroes values in place, so the dict object stays
        # valid for the DB's lifetime.
        self._counters = self.registry._counters
        # Write-path constants, cached: every write reads them.
        self._l0_stop = self.config.l0_stop_trigger
        self._l0_slowdown = self.config.l0_slowdown_trigger
        self.policy.attach(self)
        #: Whether a write must notify the policy: only a movement that
        #: observes operations (LDC's adaptive threshold) has anything to
        #: do with the notification.
        self._observes = self.policy.movement.observes_operations
        #: The maintenance engine; with background threads (repro.sched)
        #: every operation polls it, with none only an open idle gate does.
        self._bg_threads = self.config.bg_threads
        self.sched = (
            CompactionScheduler if self._bg_threads else MaintenanceEngine
        )(self)

    # ------------------------------------------------------------------
    # Id/sequence generation
    # ------------------------------------------------------------------
    def next_file_id(self) -> int:
        file_id = self._next_file_id
        self._next_file_id += 1
        return file_id

    def _next_sequence(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    @property
    def last_sequence(self) -> int:
        """Sequence number of the most recent write (0 before any write).

        Writes are strictly sequence-ordered, so this marks a consistent
        cut of the store.
        """
        return self._next_seq - 1

    def note_file_dropped(self, table) -> None:
        """A version permanently dropped ``table``; release its cache blocks.

        Compaction policies call this at true end-of-life only — merged
        inputs, replaced targets, recycled frozen files — never for
        trivial moves (same table re-added) or LDC link freezes (slices
        keep the file readable).

        With the flash layer enabled this is also the TRIM point: the
        dead file's pages are invalidated so GC can reclaim them instead
        of relocating stale data (free on the plain device).
        """
        starts = table._block_starts
        if self.block_cache is not None and starts is not None:
            # Blocks enter the cache through the block index; a file whose
            # index was never laid out has none resident.
            self.block_cache.evict_file(table.file_id, len(starts))
        self.device.trim(table.file_id)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsSnapshot:
        """Capture every metric as one frozen, diffable snapshot.

        The unified observability entry point: engine counters, device I/O
        categories, block-cache hit ratio and policy counters in one
        immutable object.  ``later.delta(earlier)`` isolates what happened
        between two captures without resetting anything.
        """
        return MetricsSnapshot.capture(self.registry, t_us=self.clock.now())

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``; may trigger flush and compactions."""
        # Validation inlined for the common case, as in get; the slow
        # paths re-run the full checks to raise the same typed errors.
        if self._closed:
            self._check_open()
        if type(key) is not bytes or not key:
            _check_key(key)
        if type(value) is not bytes:
            _check_value(value)
        seq = self._next_seq
        self._next_seq = seq + 1
        # put_record, built in place: one record per write.
        size = len(key) + len(value) + RECORD_OVERHEAD_BYTES
        self._apply_write(
            (_new_record(KVRecord, (key, seq, KIND_PUT, value, size)),), size
        )

    def delete(self, key: bytes) -> None:
        """Delete ``key`` by writing a tombstone."""
        if self._closed:
            self._check_open()
        if type(key) is not bytes or not key:
            _check_key(key)
        seq = self._next_seq
        self._next_seq = seq + 1
        size = len(key) + RECORD_OVERHEAD_BYTES
        self._apply_write(
            (_new_record(KVRecord, (key, seq, KIND_DELETE, b"", size)),), size
        )

    def write_batch(self, batch: "WriteBatch") -> None:
        """Apply a batch of mutations atomically-in-order.

        Mirrors LevelDB's ``WriteBatch``: the batch is validated and
        sequenced entry by entry (an invalid entry raises after the
        entries before it drew their sequence numbers), then enters the
        write path a put takes as one unit: one WAL append, whose single
        device write amortises the per-request overhead, then the
        memtable inserts in order.  A flush can trigger mid-stream only
        between writes, so a batch lands in one memtable.
        """
        self._check_open()
        if self.clock._capture is not None:
            raise EngineError("a write cannot run inside a clock capture")
        records = []
        push = records.append
        next_sequence = self._next_sequence
        for key, value in batch.entries:
            _check_key(key)
            if value is None:
                push(delete_record(key, next_sequence()))
            else:
                _check_value(value)
                push(put_record(key, value, next_sequence()))
        if not records:
            return
        self._apply_write(records, sum(record[4] for record in records))

    def _apply_write(self, records: Sequence[KVRecord], nbytes: int) -> None:
        """Log, insert and charge one write, then flush and maintain.

        The one write path: a put or a delete is a one-record write, a
        batch a many-record one, and ``nbytes`` is the records' total
        size.  The write is one WAL append (one durable unit); each record
        is one memtable insert and one in-place clock charge.

        Every step is gated by the check that makes it due, so a write
        that neither stalls, flushes nor compacts makes no call for those
        steps: the background catches up to now first only when a
        background thread runs (so an idle gap's chunks hold the device
        channel before this write's WAL append), the policy hears of the
        write only when its movement observes operations, the Level-0
        back-pressure runs only at the slowdown trigger, and the
        maintenance poll only when a background thread runs or the idle
        gate is open.  The memtable inserts are charged to the clock in
        place, which is ``clock.advance`` only while no capture diverts
        charges, hence the guard.
        """
        clock = self.clock
        if clock._capture is not None:
            raise EngineError("a write cannot run inside a clock capture")
        if self._bg_threads:
            self.sched.pump(clock._now_us)
        if self._observes:
            self.policy.on_operation(True)
        if len(self.version.levels[0]) >= self._l0_slowdown:
            self._maybe_stall()
        counters = self._counters
        elapsed = self._wal.append(records, nbytes)
        counters[ACT_WAL_KEY] = counters.get(ACT_WAL_KEY, 0) + elapsed
        start = clock._now_us
        memtable = self._memtable
        for record in records:
            memtable.add(record)
            clock._now_us += MEMTABLE_INSERT_US
            if record[2] == KIND_DELETE:
                counters["engine.deletes"] = counters.get("engine.deletes", 0) + 1
            else:
                counters["engine.puts"] = counters.get("engine.puts", 0) + 1
        counters["engine.user_bytes_written"] = (
            counters.get("engine.user_bytes_written", 0) + nbytes
        )
        counters[ACT_WRITE_KEY] = counters.get(ACT_WRITE_KEY, 0) + (
            clock._now_us - start
        )
        if memtable._bytes >= self.config.memtable_bytes:
            self.flush()
        if self._bg_threads or not self.policy._maintenance_idle:
            self.sched.on_operation()

    def _maybe_stall(self) -> None:
        """LevelDB's Level-0 back-pressure: at `l0_stop_trigger` the write
        blocks until the engine brings Level 0 under it, at
        `l0_slowdown_trigger` it pays the fixed delay.  The engine charges
        the activity time and ``sched.*``; the DB counts ``engine.stall_*``
        and emits ``EV_STALL``."""
        level0 = len(self.version.levels[0])
        if level0 < self._l0_slowdown:
            return
        if level0 >= self._l0_stop:
            reason = "l0_stop"
            duration = self.sched.stall_until_l0_below(self._l0_stop)
        else:
            reason = "l0_slowdown"
            duration = self.config.l0_slowdown_delay_us
            self.sched.slow_down(duration)
        count = self._count
        count("engine.stall_events")
        # A float from the first stall on, whatever the configured delay is.
        count("engine.stall_time_us", float(duration))
        self.tracer.emit(
            EV_STALL, reason=reason, level0_files=level0, duration_us=duration
        )

    def throttle_state(self) -> str:
        """The L0 write-throttle signal: ``"none"``, ``"slowdown"`` or ``"stop"``.

        The read-only form of the thresholds :meth:`_maybe_stall` acts
        on, exposed so upstream layers (the :mod:`repro.serve` admission
        gate) can react *before* a write enters the engine and absorbs
        the delay — back-pressure instead of queue-wait.
        """
        level0 = len(self.version.levels[0])
        if level0 >= self._l0_stop:
            return "stop"
        if level0 >= self._l0_slowdown:
            return "slowdown"
        return "none"

    def flush(self) -> None:
        """Write the memtable to Level-0 SSTables and start a fresh
        memtable and WAL.

        The maintenance engine decides who pays: with zero threads the
        caller, inline; with background threads the flush lane of
        :mod:`repro.sched`, where the files, the fresh memtable and the
        reset WAL exist when this returns and the write time is a
        background task (the caller first waits out a previous flush still
        unpaid).  No compaction runs here: the next maintenance poll sees
        the new Level-0 files.
        """
        self._check_open()
        if self._memtable.is_empty():
            return
        self.sched.flush()

    def _write_memtable(self) -> bool:
        """The flush itself, charged wherever the clock sends charges; the
        engine counts who paid.  True: a flush always does work."""
        clock = self.clock
        start = clock._now_us
        outputs = build_greedy_columns(
            *self._memtable.sorted_columns(), self.config, self.next_file_id
        )
        flushed_bytes = 0
        for table in outputs:
            self.device.write(
                table.data_size, FLUSH_WRITE, sequential=True,
                owner=table.file_id,
            )
            self.version.add_file(0, table)
            flushed_bytes += table.data_size
        self._memtable = MemTable()
        self._wal.reset()
        self.policy._maintenance_idle = False
        self._count("engine.flush_count")
        self.tracer.emit(
            EV_FLUSH,
            tables=len(outputs),
            nbytes=flushed_bytes,
            duration_us=clock.charged_since(start),
        )
        return True

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup: newest visible value for ``key`` (None if absent)."""
        # Validation inlined for the common case (open DB, plain non-empty
        # bytes key); the slow path re-runs the full checks to raise the
        # same typed errors.
        if self._closed:
            self._check_open()
        if type(key) is not bytes or not key:
            _check_key(key)
        # The write path's gates (see _apply_write): background work
        # catches up first only with a thread, the policy hears of the
        # read only when its movement observes operations, and the
        # maintenance poll runs only with a background thread or the idle
        # gate open.
        clock = self.clock
        if self._bg_threads:
            self.sched.pump(clock._now_us)
        if self._observes:
            self.policy.on_operation(False)
        start = clock._now_us
        counters = self._counters
        counters["engine.gets"] = counters.get("engine.gets", 0) + 1
        record = self._lookup(key)
        counters[ACT_READ_KEY] = counters.get(ACT_READ_KEY, 0) + (
            clock._now_us - start
        )
        if self._bg_threads or not self.policy._maintenance_idle:
            self.sched.on_operation()
        if record is None or record[2] == KIND_DELETE:
            return None
        counters["engine.get_hits"] = counters.get("engine.get_hits", 0) + 1
        return record[3]

    def _lookup(self, key: bytes) -> Optional[KVRecord]:
        """The newest record stored under ``key`` (tombstones included).

        One walk down the levels.  An overlapping level (Level 0, every
        level of a tiered tree) probes each file whose own range holds the
        key, newest first; a sorted level charges its index probe, even
        when empty, and probes its one responsible file.  A probed file
        checks its linked slices newest link first, each only when the key
        lies in the slice's own key span, then itself.  The first source
        holding the key answers, tombstone included: a later link holds
        newer data than an earlier one, every slice newer data than its
        file (``LDCLinkMergeMovement.check_invariants``).

        The Bloom hash pair is computed once, and filter skips and cache
        outcomes are tallied and reach the registry when the lookup ends.
        The constant CPU charges are added to the clock in place, one
        float add per charge in probe order — never summed, never moved
        past a block read, because a device read behind a
        :class:`~repro.ssd.clock.DeviceChannel` reads the clock.  That is
        ``clock.advance`` only while no capture diverts charges, hence the
        guard.
        """
        clock = self.clock
        if clock._capture is not None:
            raise EngineError("a point lookup cannot run inside a clock capture")
        clock._now_us += MEMTABLE_LOOKUP_US
        record = self._memtable.get(key)
        if record is not None:
            return record
        hashes = key_hashes(key)
        # Bloom-negative skips, cache hits, misses, evictions, evicted bytes.
        tally = [0, 0, 0, 0, 0]
        read_block = self._read_block
        version = self.version
        levels = version.levels
        max_keys = version._max_keys
        overlapping = 1 if version.sorted_levels else len(levels)
        try:
            for level, files in enumerate(levels):
                if level < overlapping:
                    # Append order with increasing ids: reversed() is
                    # newest-first without a per-lookup sort.
                    tables = reversed(files)
                else:
                    # Routed by responsibility range, not raw range: linked
                    # slices can hold keys outside their file's own
                    # [min, max].  VersionSet.responsible_index, inlined:
                    # the last file answers past every max_key.
                    clock._now_us += INDEX_LOOKUP_US
                    if not files:
                        continue
                    index = bisect_left(max_keys[level], key)
                    tables = files[index:index + 1] or files[-1:]
                for table in tables:
                    inside = table.min_key <= key <= table.max_key
                    if not inside and level < overlapping:
                        continue
                    if table.slice_links:
                        # Direct slot reads skip the lazily-built accessors
                        # on the hot path; they still build on first use.
                        links = table._links_newest
                        if links is None:
                            links = table.links_newest_first()
                        for piece in links:
                            if not piece.min_key <= key <= piece.max_key:
                                continue
                            clock._now_us += BLOOM_CHECK_US
                            source = piece.source
                            bloom = source._bloom
                            if bloom is None:
                                bloom = source.bloom
                            if not bloom.may_contain(key, hashes):
                                tally[0] += 1
                                continue
                            record = read_block(source, key, tally)
                            if record is not None:
                                return record
                    if not inside:
                        # The key fell in this file's responsibility gap:
                        # only its slices (checked above) could hold it.
                        continue
                    clock._now_us += BLOOM_CHECK_US
                    bloom = table._bloom
                    if bloom is None:
                        bloom = table.bloom
                    if not bloom.may_contain(key, hashes):
                        tally[0] += 1
                        continue
                    record = read_block(table, key, tally)
                    if record is not None:
                        return record
            return None
        finally:
            # Also on a CorruptionError: what was probed before it counts.
            # Zeros create no counter (the registry's key set is hashed
            # by the batched-API fingerprints).
            skips, hits, misses, evictions, evicted_bytes = tally
            if skips:
                counters = self._counters
                counters["engine.bloom_negative_skips"] = (
                    counters.get("engine.bloom_negative_skips", 0) + skips
                )
            if hits or misses:
                self.block_cache.count_probes(hits, misses, evictions, evicted_bytes)

    def _read_block(
        self, table: SSTable, key: bytes, tally: List[int]
    ) -> Optional[KVRecord]:
        """Read the one data block of ``table`` that could hold ``key``.

        Returns the record found there (None when absent), charging the
        block via the block cache when enabled: a cache hit costs a CPU
        constant; a miss reads the block from the device and installs it.
        Only device reads count toward the Fig. 13 block-read statistic.
        A key outside the file's own range — reachable through a slice
        wider than its source, on a Bloom false positive — has no block:
        nothing is read and nothing charged.  Cache outcomes go into
        :meth:`_lookup`'s five-slot ``tally``.
        """
        located = table.locate(key)
        if located is None:
            return None
        record, block_index, nbytes = located
        cache = self.block_cache
        tracer = self.tracer  # shared with the device (see __init__)
        tracing = tracer.active
        if cache is not None:
            if cache.probe(table.file_id, block_index):
                tally[1] += 1
                self.clock._now_us += CACHE_HIT_US
                if tracing:
                    tracer.emit(
                        EV_CACHE_HIT, file_id=table.file_id, block=block_index,
                        nbytes=nbytes,
                    )
                return record
            tally[2] += 1
            if tracing:
                tracer.emit(
                    EV_CACHE_MISS, file_id=table.file_id, block=block_index,
                    nbytes=nbytes,
                )
        device = self.device
        device.read(nbytes, USER_READ)
        if device.faults is not None:
            # Verify before the cache insert so a corrupt block is
            # never served from memory later.
            self._verify_block_read(table, (block_index,))
        counters = self._counters
        counters["engine.sstable_blocks_read"] = (
            counters.get("engine.sstable_blocks_read", 0) + 1
        )
        if cache is not None:
            cache.insert(table.file_id, block_index, nbytes, tally)
        return record

    def _verify_block_read(self, table: SSTable, block_indices) -> None:
        """Check a just-charged device read of ``table`` blocks for corruption.

        The device's fault stage parks an XOR mask when it flipped bits
        in the delivered copy; comparing the stored per-block CRCs against
        the delivered ones (stored XOR mask) surfaces the flip as a typed
        :class:`~repro.errors.CorruptionError`.
        """
        mask = self.device.consume_read_corruption()
        if not mask:
            return
        expected = 0
        for block_index in block_indices:
            expected ^= table.block_crc(block_index)
        self._count("faults.corruptions_detected")
        raise CorruptionError(
            f"file {table.file_id} block(s) {list(block_indices)} failed CRC "
            f"verification: stored 0x{expected & 0xFFFFFFFF:08x}, "
            f"read 0x{(expected ^ mask) & 0xFFFFFFFF:08x}"
        )

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Return up to ``count`` live key-value pairs with key >= start.

        Merges the memtable, every overlapping Level-0 (or tiered) file
        and one stream per sorted level, each file read together with its
        linked slices (:func:`~repro.lsm.iterators.merge_streams`: index
        windows cut in rounds, not records pulled one by one); tombstones
        shadow older versions and are not returned.  ``count`` must be an
        ``int`` (a float or a ``bool`` is a ``TypeError``).
        """
        self._check_open()
        _check_key(start_key)
        if type(count) is bool or not isinstance(count, int):
            raise TypeError(f"scan count must be an int, got {count!r}")
        if count <= 0:
            return []
        clock = self.clock
        if clock._capture is not None:
            raise EngineError("a scan cannot run inside a clock capture")
        # The gates of get and _apply_write.
        if self._bg_threads:
            self.sched.pump(clock._now_us)
        if self._observes:
            self.policy.on_operation(False)
        start_time = clock._now_us
        self._count("engine.scans")

        streams = self._scan_streams(start_key)
        results, consumed, last_key = merge_streams(streams, start_key, count)
        # One float add per merged record, as if charged in merge order:
        # the clock must stay bit-exact, so the sum is never a multiply.
        clock._now_us = reduce(
            add, repeat(SCAN_PER_RECORD_US, consumed), clock._now_us
        )
        self._count("engine.scanned_records", len(results))

        # Charge the device for the block range each opened window covers:
        # from where the scan entered it up to the last key returned (the
        # whole tail when the store ran out first).  Tables first, then
        # slices, each in (level, file, link) order; the memtable stream
        # (the first) has no blocks.  Without a cache a range is one
        # sequential read; with one, the cache walks it (resident blocks
        # cost CPU, runs of missing ones coalesce into sequential reads)
        # and its hits, misses and evictions reach the registry once per
        # scan, also when a read raises.
        units = [unit for stream in streams[1:] for unit in stream[0]]
        windows = [unit[0] for unit in units]
        windows += [window for unit in units for window in unit[1:]]
        cache = self.block_cache
        read_run = self._read_scan_run
        tally = [0, 0, 0, 0]  # cache hits, misses, evictions, evicted bytes
        try:
            for keys, _, _, stop, start, table in windows:
                if last_key is not None:
                    stop = bisect_right(keys, last_key, start, stop)
                if start >= stop:
                    continue
                # The blocks holding records [start, stop): SSTable.block_span.
                starts = table._block_starts
                if starts is None:
                    starts = table._build_blocks()[0]
                first = bisect_right(starts, start) - 1
                end = bisect_right(starts, stop - 1)
                sizes = table._block_bytes
                if cache is None:
                    read_run(table, first, end, sum(sizes[first:end]), 0)
                    continue
                hits = cache.fetch_range(
                    table.file_id, first, end, sizes, partial(read_run, table), tally
                )
                for _ in range(hits):
                    clock._now_us += CACHE_HIT_US
        finally:
            if cache is not None:
                cache.count_probes(*tally)
        self._count("engine.scan_sources", len(windows))
        self._count(ACT_SCAN_KEY, clock._now_us - start_time)
        if self._bg_threads or not self.policy._maintenance_idle:
            self.sched.on_operation()
        return results

    def _scan_streams(self, start_key: bytes) -> List[list]:
        """The merge streams of a scan from ``start_key``, memtable first.

        See :mod:`repro.lsm.iterators` for the stream layout.  A sorted
        level starts at the file responsible for ``start_key``; Level 0
        and tiered levels contribute one single-unit stream per file that
        can hold a key at or after it.
        """
        streams = [[[[self._memtable.window_from(start_key)]], (), 0]]
        version = self.version
        for level, files in enumerate(version.levels):
            if level and version.sorted_levels:
                if files:
                    first = version.responsible_index(level, start_key)
                    streams.append([[], files, first])
            else:
                for table in files:
                    if table.max_key >= start_key or table.slice_links:
                        streams.append([[], (table,), 0])
        return streams

    def _read_scan_run(
        self, table: SSTable, first: int, end: int, nbytes: int, hits: int
    ) -> None:
        """Charge ``hits`` cache hits, then read ``table``'s blocks ``[first, end)``.

        The run callback of :meth:`~repro.lsm.cache.BlockCache.fetch_range`:
        the hits since the previous run are one float add each, before the
        one sequential device read, so hits and reads reach the clock in
        block order.  Under a fault plan the read is CRC-verified, and a
        run that fails leaves none of its blocks resident: a corrupt run
        must not become future cache hits.  The in-place clock charges are
        covered by :meth:`scan`'s capture guard.
        """
        if hits:
            clock = self.clock
            for _ in range(hits):
                clock._now_us += CACHE_HIT_US
        device = self.device
        device.read(nbytes, USER_SCAN, sequential=True)
        if device.faults is not None:
            try:
                self._verify_block_read(table, range(first, end))
            except CorruptionError:
                if self.block_cache is not None:
                    self.block_cache.evict_blocks(table.file_id, range(first, end))
                raise

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    def space_bytes(self) -> int:
        """Total device space held: resident files plus policy-held extras.

        For LDC the extras are the frozen region — the quantity behind the
        paper's space-efficiency experiment (Fig. 15).  Linked slices are
        *not* added on top: their bytes live inside the frozen files.
        """
        return self.version.total_file_bytes() + self.policy.extra_space_bytes()

    def logical_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every live key-value pair, in key order, without cost charging.

        A verification backdoor for tests and examples: reads the whole
        logical store (memtable, all levels, all slices) off the clock,
        through the merge a scan uses.
        """
        self._check_open()
        return iter(merge_streams(self._scan_streams(b""), b"", sys.maxsize)[0])

    def describe(self) -> str:
        """A human-readable snapshot of the store (LevelDB's GetProperty).

        Shows per-level file counts, sizes and linked-slice bytes, the
        policy's extra space, and the headline counters — handy in
        examples and when debugging experiments.
        """
        lines = [
            f"policy={self.policy.name}  virtual_time={self.clock.now() / 1e6:.3f}s",
            f"memtable: {len(self._memtable)} records, "
            f"{self._memtable.approximate_bytes} bytes",
            "level  files  data_bytes  linked_bytes  score",
        ]
        for level in range(self.version.num_levels):
            files = self.version.files(level)
            if not files and level > 1:
                continue
            data = sum(table.data_size for table in files)
            linked = sum(table.linked_bytes for table in files)
            score = self.version.level_score(level) if level < self.version.num_levels - 1 else 0.0
            lines.append(
                f"{level:>5}  {len(files):>5}  {data:>10}  {linked:>12}  {score:>5.2f}"
            )
        extra = self.policy.extra_space_bytes()
        if extra:
            lines.append(f"frozen region: {extra} bytes")
        snap = self.metrics()

        def engine(name: str) -> int:
            return snap.get(f"engine.{name}")

        lines.append(
            f"ops: puts={engine('puts')} deletes={engine('deletes')} "
            f"gets={engine('gets')} scans={engine('scans')}"
        )
        lines.append(
            f"maintenance: flushes={engine('flush_count')} "
            f"compactions={engine('compaction_count')} "
            f"links={engine('link_count')} merges={engine('merge_count')} "
            f"trivial_moves={engine('trivial_moves')}"
        )
        lines.append(f"write_amplification={snap.write_amplification:.2f}")
        return "\n".join(lines)

    def reset_measurements(self) -> None:
        """Zero every measurement through the shared metrics registry.

        Called by the harness after a load phase so that measured I/O,
        amplification and activity shares cover only the measured
        operations (the virtual clock keeps running).  One registry reset
        zeroes engine, device, block-cache *and* policy counters
        consistently; the per-round byte list is cleared with it.  Gauges
        (e.g. LDC's current threshold) describe live state and are
        preserved.
        """
        self.registry.reset()
        self.round_bytes.clear()

    def crash_and_recover(self) -> int:
        """Simulate a crash: drop the memtable, replay the WAL.

        Returns the number of records recovered.

        Recovery rebuilds every piece of engine state the dropped
        memtable carried: the log is re-read from the device (charged as
        ``wal_read``, torn tail units dropped), the surviving records are
        replayed in log order — which is sequence order — through the
        memtable's one insert, exactly as the writes first made them, and
        the next sequence number is recomputed from the durable maximum —
        the highest sequence in any live file, linked slice source, or
        replayed record — so that post-recovery writes never reuse an
        acknowledged sequence.
        """
        self._check_open()
        # In-flight background chunks are pure time debt (their rounds'
        # logical effects applied at capture), and a rebooted store does
        # not owe the dead process's unpaid time.
        self.sched.discard_inflight()
        start = self.clock.now()
        records = self._wal.recover()
        # Durable maximum sequence: live tables, their slice sources
        # (every frozen file is reachable through some in-tree file's
        # slice_links while its refcount is non-zero), and the WAL.
        max_seq = 0
        for table in self.version.all_tables():
            if table.max_seq > max_seq:
                max_seq = table.max_seq
            for piece in table.slice_links:
                if piece.source.max_seq > max_seq:
                    max_seq = piece.source.max_seq
        memtable = self._memtable = MemTable()
        for record in records:
            memtable.add(record)
            if record[1] > max_seq:
                max_seq = record[1]
        self._next_seq = max_seq + 1
        duration = self.clock.now() - start
        self._count(ACT_WAL_KEY, duration)
        self._count("engine.recoveries")
        if records:
            self._count("engine.recovered_records", len(records))
        self.tracer.emit(
            EV_RECOVERY,
            records=len(records),
            next_seq=self._next_seq,
            duration_us=duration,
        )
        return len(records)

    def check_invariants(self) -> None:
        """Verify cross-layer structural invariants; raise on violation.

        The crash-test oracle: after every simulated crash + recovery
        (and at the end of integration tests) the store must satisfy

        * the version-set invariants — levels >= 1 sorted and
          non-overlapping, linked slices inside their carrier file's
          responsibility range, byte counters consistent, no frozen file
          resident in a level;
        * every linked slice's source is frozen, and each frozen source's
          refcount equals its live slice fan-in;
        * the sizes nothing else recomputes: in every live or frozen file
          and in the memtable each record's ``size`` matches its key and
          value, and the file's size prefix, ``data_size``, laid-out
          blocks and the memtable's byte count are sums of those sizes;
        * the policy's own invariants (LDC checks its frozen region);
        * every cached block belongs to a live file (resident in a level
          or a still-referenced frozen source) and lies inside that
          file's block count, which is all ``evict_file`` will pop.
        """
        self._check_open()
        self.version.check_invariants()
        live: dict = {}
        fan_in: dict = {}
        sources: dict = {}
        for table in self.version.all_tables():
            live[table.file_id] = table
            for piece in table.slice_links:
                source = piece.source
                sources[source.file_id] = source
                fan_in[source.file_id] = fan_in.get(source.file_id, 0) + 1
        for file_id, source in sources.items():
            live[file_id] = source
            if not source.frozen:
                raise EngineError(
                    f"slice source {file_id} is linked but not frozen"
                )
            if source.refcount != fan_in[file_id]:
                raise EngineError(
                    f"frozen file {file_id} refcount {source.refcount} != "
                    f"live slice fan-in {fan_in[file_id]}"
                )
        for table in live.values():
            table.check_invariants()
        self._memtable.check_invariants()
        self.policy.check_invariants()
        self.sched.check_invariants()
        if self.device.flash is not None:
            self.device.flash.check_invariants()
        if self.block_cache is not None:
            cached = self.block_cache.cached_blocks()
            stale = {file_id for file_id, _ in cached} - live.keys()
            if stale:
                raise EngineError(
                    f"block cache holds blocks of dead files {sorted(stale)}"
                )
            for file_id, block in cached:
                if block >= live[file_id].num_blocks:
                    raise EngineError(
                        f"block cache holds block {block} of file {file_id}, "
                        f"which has {live[file_id].num_blocks} blocks"
                    )

    def close(self) -> None:
        """Flush outstanding writes and refuse further operations.

        Also closes the tracer so file-backed trace sinks are flushed.
        """
        if self._closed:
            return
        self.flush()
        # Join the background threads: pay outstanding compaction debt so
        # the closing clock covers all work this store caused.
        self.sched.drain()
        self._closed = True
        self.tracer.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("database is closed")

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DB(policy={self.policy.name!r}, files={self.version.num_files()}, "
            f"t={self.clock.now():.0f}us)"
        )


class WriteBatch:
    """An ordered collection of mutations applied via :meth:`DB.write_batch`.

    Example
    -------
    >>> from repro import DB
    >>> from repro.lsm.db import WriteBatch
    >>> db = DB()
    >>> batch = WriteBatch()
    >>> batch.put(b"a", b"1").put(b"b", b"2").delete(b"a")
    WriteBatch(3 entries)
    >>> db.write_batch(batch)
    >>> db.get(b"b")
    b'2'
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[bytes, Optional[bytes]]] = []

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        self.entries.append((key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        self.entries.append((key, None))
        return self

    def clear(self) -> None:
        self.entries = []

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"WriteBatch({len(self.entries)} entries)"


def _check_key(key: bytes) -> None:
    if not isinstance(key, bytes):
        raise TypeError("keys must be bytes")
    if not key:
        raise EngineError("keys must be non-empty")


def _check_value(value: bytes) -> None:
    if not isinstance(value, bytes):
        raise TypeError("values must be bytes")
