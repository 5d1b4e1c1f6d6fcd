"""The three scans ``DB.scan`` replaced, kept as test oracles.

``window_scan`` is the latest: the window merge as it stood before a
charged range became one cache call — ``DB.scan``, ``merge_streams``
(whose pool is assembled memtable first), ``_charge_range_read`` (a
``BlockCache.fetch`` call per block and a ``count_probes`` per range) and
``_read_scan_run``, moved here with ``self`` spelled ``db`` / ``cache``.
It pins everything the current scan may charge, bit for bit, and the
units its merge leaves opened.

``eager_scan`` is the first one: it opened an iterator on *every* file
right of the start key in every level, plus every slice linked to them,
merged the lot, and then charged the device for each of those sources in
turn.  It is trivially right — it cannot skip a source it should have
read — so it pins the results and the charge sequence (device reads,
cache probes and installs — a missing block is installed when its probe
misses, and a run that fails its CRC leaves none of its blocks resident —
CRC verification, in the same order), hence the virtual clock, the
``USER_SCAN`` counters and the block-cache LRU state.  It opens more
sources than a lazy scan, so it says nothing about ``engine.scan_sources``.

``cursor_scan`` is the second: one lazy cursor per sorted level, a heap
step per record, a cache probe plus an install per block — ``DB.scan``,
``merge_records``, ``table_records``, ``level_cursor``, ``_charge_range_read``
and ``_read_scan_run`` as they stood before the window merge, moved here
with ``self`` spelled ``db``.  It opens exactly the sources the engine may
count, so it pins ``engine.scan_sources`` too, and it is the call-count
baseline of ``tests/test_host_scaling.py::TestCallsPerScan``.

All three drive a real :class:`~repro.lsm.db.DB` exactly as the old methods
did, so a test runs identically-built stores side by side, one through
``db.scan`` and one through each function.  The helpers the old scans
called that have since left ``src/`` (``MemTable.iter_from``,
``records_in_range``, ``blocks_in_range``) are private copies below.
"""

import heapq
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import chain, islice, repeat
from operator import add
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CorruptionError, EngineError
from repro.lsm.config import CACHE_HIT_US, SCAN_PER_RECORD_US
from repro.lsm.db import _check_key
from repro.lsm.iterators import _refill, unit_windows
from repro.lsm.keys import clamp_range, key_successor
from repro.lsm.record import KIND_DELETE, KVRecord
from repro.lsm.stats import ACT_SCAN_KEY
from repro.ssd.metrics import USER_SCAN


# ----------------------------------------------------------------------
# Helpers that left src/ with the scans that called them
# ----------------------------------------------------------------------
def _memtable_from(memtable, key: bytes) -> Iterator[KVRecord]:
    """``MemTable.iter_from``: records in key order from the first >= ``key``."""
    keys = memtable._sorted_keys()
    records = memtable._records
    for index in range(bisect_left(keys, key), len(keys)):
        yield records[keys[index]]


def _table_records_in_range(table, lo, hi) -> Iterable[KVRecord]:
    """``SSTable.records_in_range``: the records with keys in ``[lo, hi)``."""
    start, stop = table._index_range(lo, hi)
    return islice(table._records, start, stop)


def _slice_records_in_range(piece, lo, hi) -> Iterable[KVRecord]:
    """``Slice.records_in_range``: the slice intersected with ``[lo, hi)``."""
    keys = piece.source._keys
    first, last = piece._start, piece._stop
    start = first if lo is None else bisect_left(keys, lo, first, last)
    stop = last if hi is None else bisect_left(keys, hi, start, last)
    return islice(piece.source._records, start, stop)


def _blocks_in_range(table, lo, hi) -> List[Tuple[int, int]]:
    """``SSTable.blocks_in_range``: ``(block_index, nbytes)`` touched by ``[lo, hi)``."""
    start, stop = table._index_range(lo, hi)
    if stop <= start:
        return []
    starts, sizes = table.block_index()
    first_block = bisect_right(starts, start) - 1
    last_block = bisect_right(starts, stop - 1) - 1
    return [(block, sizes[block]) for block in range(first_block, last_block + 1)]


# ----------------------------------------------------------------------
# The record-at-a-time merge (was repro.lsm.iterators)
# ----------------------------------------------------------------------
def merge_records(sources: List[Iterable[KVRecord]]) -> Iterator[KVRecord]:
    """Merge key-sorted streams, yielding the newest record per user key.

    Each source must be internally sorted by key with at most one record
    per key.  Across sources, the record with the highest sequence number
    wins (ties — impossible for distinct engine mutations — fall to the
    earliest source).  Tombstones are *not* filtered — callers decide
    whether deletes may be dropped (only at the bottom of the tree) or
    must be preserved.
    """
    iterators: List[Iterator[KVRecord]] = []
    heap: List[tuple[bytes, int, int, KVRecord]] = []
    for source in sources:
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            heap.append((first.key, -first.seq, len(iterators), first))
            iterators.append(iterator)

    if not heap:
        return
    if len(heap) == 1:
        # Single live source: records are already unique-keyed and sorted.
        yield heap[0][3]
        yield from iterators[0]
        return

    heapq.heapify(heap)
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    nexts = [iterator.__next__ for iterator in iterators]
    while heap:
        key, _, index, record = heap[0]
        try:
            nxt = nexts[index]()
        except StopIteration:
            heappop(heap)
        else:
            heapreplace(heap, (nxt.key, -nxt.seq, index, nxt))
        # Drain older versions of the same key from other sources.
        while heap and heap[0][0] == key:
            other = heap[0][2]
            try:
                refill = nexts[other]()
            except StopIteration:
                heappop(heap)
            else:
                heapreplace(heap, (refill.key, -refill.seq, other, refill))
        yield record


def table_records(table, lo: Optional[bytes]) -> Iterable[KVRecord]:
    """``table``'s records from ``lo`` on, merged with its linked slices."""
    links = table.slice_links
    if not links:
        return _table_records_in_range(table, lo, None)
    sources = [_table_records_in_range(table, lo, None)]
    sources.extend(_slice_records_in_range(piece, lo, None) for piece in links)
    return merge_records(sources)


def level_cursor(
    files: Sequence, first: int, lo: bytes, opened: List
) -> Iterator[KVRecord]:
    """One lazy source for a sorted level (LevelDB's concatenating iterator).

    Starts at ``files[first]``, the file responsible for ``lo``; each unit
    (a file plus its slice links) the cursor starts reading is appended to
    ``opened`` — exactly the files the device is charged for.
    """

    def units() -> Iterator[Iterable[KVRecord]]:
        for table in islice(files, first, None):
            opened.append(table)
            yield table_records(table, lo)

    # chain pulls the next unit only once the current one is exhausted,
    # and hands records through without a Python frame per record.
    return chain.from_iterable(units())


# ----------------------------------------------------------------------
# cursor_scan: the scan the window merge replaced
# ----------------------------------------------------------------------
def cursor_scan(db, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
    """The pre-window ``DB.scan``: lazy level cursors, one heap step per record."""
    db._check_open()
    _check_key(start_key)
    if count <= 0:
        return []
    db.policy.on_operation(False)
    clock = db.clock
    start_time = clock.now()
    db._count("engine.scans")

    version = db.version
    sources: List = [_memtable_from(db._memtable, start_key)]
    # Per level, the files a source started reading — what the device
    # is charged for below.
    opened: List[List] = []
    for level in range(version.num_levels):
        files = version.files(level)
        reached: List = []
        opened.append(reached)
        if level and version.sorted_levels:
            if files:
                first = version.responsible_index(level, start_key)
                sources.append(level_cursor(files, first, start_key, reached))
        else:
            for table in files:
                if table.max_key >= start_key or table.slice_links:
                    reached.append(table)
                    sources.append(table_records(table, start_key))

    # One float add per merged record, in merge order: the clock must
    # stay bit-exact, so the charges are hoisted but not batched.
    advance = clock.advance
    per_record_us = SCAN_PER_RECORD_US
    results: List[Tuple[bytes, bytes]] = []
    push = results.append
    for record in merge_records(sources):
        advance(per_record_us)
        if record[2] == KIND_DELETE:
            continue
        push((record[0], record[3]))
        if len(results) >= count:
            break
    db._count("engine.scanned_records", len(results))

    # Charge the device for the block ranges each opened source
    # covered: from the scan start up to the last key returned (or the
    # whole tail when the store was exhausted first).  Tables first,
    # then slices, each in (level, file, link) order; a file no cursor
    # reached holds only keys past ``end_hi``, i.e. no blocks to charge.
    end_hi = key_successor(results[-1][0]) if len(results) >= count else None
    for reached in opened:
        for table in reached:
            _cursor_charge_range_read(db, table, start_key, end_hi)
    source_count = 0
    for reached in opened:
        for table in reached:
            links = table.slice_links
            source_count += 1 + len(links)
            for piece in links:
                lo, hi = clamp_range(piece.lo, piece.hi, start_key, end_hi)
                _cursor_charge_range_read(db, piece.source, lo, hi)
    db._count("engine.scan_sources", source_count)
    db._count(ACT_SCAN_KEY, clock.now() - start_time)
    db.sched.on_operation()
    return results


def _cursor_charge_range_read(db, table, lo, hi) -> None:
    """The pre-window ``DB._charge_range_read``: a probe and an install per block."""
    blocks = _blocks_in_range(table, lo, hi)
    if not blocks:
        return
    cache = db.block_cache
    if cache is None:
        _cursor_read_scan_run(db, table, blocks, sum(nbytes for _, nbytes in blocks))
        return
    file_id = table.file_id
    probe = cache.probe
    insert = cache.insert
    hit_us = CACHE_HIT_US
    hits = misses = run_bytes = run_start = 0
    try:
        # The None sentinel closes the last run.
        for position, block in enumerate(blocks + [None]):
            if block is not None and not probe(file_id, block[0]):
                if not run_bytes:
                    run_start = position
                misses += 1
                run_bytes += block[1]
                insert(file_id, *block)
                continue
            if run_bytes:
                _cursor_read_scan_run(db, table, blocks[run_start:position], run_bytes)
                run_bytes = 0
            if block is not None:
                hits += 1
                db.clock.advance(hit_us)
    finally:
        cache.count_probes(hits, misses)


def _cursor_read_scan_run(db, table, run, nbytes: int) -> None:
    """The pre-window ``DB._read_scan_run``: one sequential read of ``run``."""
    device = db.device
    device.read(nbytes, USER_SCAN, sequential=True)
    if device.faults is not None:
        indices = [block_index for block_index, _ in run]
        try:
            db._verify_block_read(table, indices)
        except CorruptionError:
            if db.block_cache is not None:
                db.block_cache.evict_blocks(table.file_id, indices)
            raise


# ----------------------------------------------------------------------
# eager_scan: the all-sources scan before that
# ----------------------------------------------------------------------
def eager_scan(db, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
    """The pre-cursor ``DB.scan``: one merge source per file and slice."""
    db._check_open()
    _check_key(start_key)
    if count <= 0:
        return []
    db.policy.on_operation(False)
    start_time = db.clock.now()
    db._count("engine.scans")

    sources: List = [_memtable_from(db._memtable, start_key)]
    tables: List = []
    slices: List = []
    for level in range(db.version.num_levels):
        for table in db.version.files(level):
            if table.max_key >= start_key:
                tables.append(table)
                sources.append(_table_records_in_range(table, start_key, None))
            for piece in table.slice_links:
                if piece.hi is None or piece.hi > start_key:
                    slices.append(piece)
                    sources.append(_slice_records_in_range(piece, start_key, None))

    results: List[Tuple[bytes, bytes]] = []
    for record in merge_records(sources):
        db.clock.advance(SCAN_PER_RECORD_US)
        if record.is_tombstone:
            continue
        results.append((record.key, record.value))
        if len(results) >= count:
            break
    db._count("engine.scanned_records", len(results))

    end_hi = key_successor(results[-1][0]) if len(results) >= count else None
    for table in tables:
        _eager_charge_range_read(db, table, start_key, end_hi)
    for piece in slices:
        lo, hi = clamp_range(piece.lo, piece.hi, start_key, end_hi)
        _eager_charge_range_read(db, piece.source, lo, hi)
    db._count("engine.scan_sources", len(tables) + len(slices))
    db._count(ACT_SCAN_KEY, db.clock.now() - start_time)
    db.sched.on_operation()
    return results


def _eager_charge_range_read(db, table, lo, hi) -> None:
    blocks = _blocks_in_range(table, lo, hi)
    if not blocks:
        return
    cache = db.block_cache
    if cache is None:
        _eager_read_run(db, table, blocks)
        return
    run: List[Tuple[int, int]] = []
    for block_index, nbytes in blocks:
        if cache.lookup(table.file_id, block_index):
            if run:
                _eager_read_run(db, table, run)
                run = []
            db.clock.advance(CACHE_HIT_US)
        else:
            run.append((block_index, nbytes))
            cache.insert(table.file_id, block_index, nbytes)
    if run:
        _eager_read_run(db, table, run)


def _eager_read_run(db, table, run) -> None:
    """Read one contiguous run; under a fault plan verify it, and on a CRC
    failure drop the run's blocks (installed at miss time) from the cache."""
    db.device.read(sum(nbytes for _, nbytes in run), USER_SCAN, sequential=True)
    if db.device.faults is None:
        return
    try:
        db._verify_block_read(table, [block_index for block_index, _ in run])
    except CorruptionError:
        if db.block_cache is not None:
            db.block_cache.evict_blocks(
                table.file_id, [block_index for block_index, _ in run]
            )
        raise


# ----------------------------------------------------------------------
# window_scan: the window merge with one cache call per block
# ----------------------------------------------------------------------
def window_scan(db, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
    """The pre-range ``DB.scan``: a ``count_probes`` per charged range."""
    db._check_open()
    _check_key(start_key)
    if count <= 0:
        return []
    clock = db.clock
    if clock._capture is not None:
        raise EngineError("a scan cannot run inside a clock capture")
    db.policy.on_operation(False)
    start_time = clock._now_us
    db._count("engine.scans")

    streams = db._scan_streams(start_key)
    results, consumed, last_key = merge_streams(streams, start_key, count)
    clock._now_us = reduce(
        add, repeat(SCAN_PER_RECORD_US, consumed), clock._now_us
    )
    db._count("engine.scanned_records", len(results))

    units = [unit for stream in streams[1:] for unit in stream[0]]
    windows = [unit[0] for unit in units]
    windows += [window for unit in units for window in unit[1:]]
    for keys, _, _, stop, start, table in windows:
        if last_key is not None:
            stop = bisect_right(keys, last_key, start, stop)
        if start < stop:
            charge_range_read(db, table, *table.block_span(start, stop))
    db._count("engine.scan_sources", len(windows))
    db._count(ACT_SCAN_KEY, clock._now_us - start_time)
    db.sched.on_operation()
    return results


def merge_streams(
    streams: List[list], lo: bytes, count: int
) -> Tuple[List[Tuple[bytes, bytes]], int, Optional[bytes]]:
    """The pre-range ``iterators.merge_streams``: the pool memtable first."""
    live = [stream for stream in streams if _refill(stream, lo)]
    lazy = len(live) == 1
    pairs: List[Tuple[bytes, bytes]] = []
    consumed = 0
    remaining = count
    while live:
        bound = None
        for units, _, _ in live:
            frontier = None
            for keys, _, pos, stop, _, _ in units[-1]:
                if pos < stop:
                    reach = pos + remaining
                    key = keys[(reach if reach < stop else stop) - 1]
                    if frontier is None or key > frontier:
                        frontier = key
            if bound is None or frontier < bound:
                bound = frontier
        pooled: list = []
        pool = pooled.extend
        used_up = []
        for stream in live:
            unread = False
            for window in stream[0][-1]:
                keys, records, pos, stop, _, _ = window
                if pos < stop:
                    cut = bisect_right(keys, bound, pos, stop)
                    if cut > pos:
                        window[2] = cut
                        if type(records) is dict:  # the memtable
                            pool(map(records.__getitem__, keys[pos:cut]))
                        else:
                            pool(records[pos:cut])
                    if cut < stop:
                        unread = True
            if not unread:
                used_up.append(stream)
        pooled.sort()
        newest = {record[0]: record for record in pooled}
        found = [
            (record[0], record[3])
            for record in newest.values()
            if record[2] != KIND_DELETE
        ]
        if len(found) >= remaining:
            pairs += found[:remaining]
            last_key = pairs[-1][0]
            consumed += bisect_right(list(newest), last_key)
            break
        pairs += found
        remaining -= len(found)
        consumed += len(newest)
        for stream in used_up:
            if not _refill(stream, lo):
                live.remove(stream)
    else:
        return pairs, consumed, None
    if not lazy:
        for stream in streams:
            units, files, index = stream
            if index < len(files):
                for keys, _, _, stop, start, _ in units[-1]:
                    if start < stop and keys[stop - 1] > last_key:
                        break
                else:
                    units.append(unit_windows(files[index], lo))
                    stream[2] += 1
    return pairs, consumed, last_key


def charge_range_read(db, table, first: int, end: int) -> None:
    """The pre-range ``DB._charge_range_read``: a ``fetch`` per block."""
    sizes = table._block_bytes
    if sizes is None:
        sizes = table._build_blocks()[1]
    cache = db.block_cache
    if cache is None:
        read_scan_run(db, table, first, end, sum(sizes[first:end]))
        return
    file_id = table.file_id
    clock = db.clock
    hit_us = CACHE_HIT_US
    hits = misses = run_bytes = run_start = 0
    evicted = [0, 0]
    try:
        for block in range(first, end):
            nbytes = sizes[block]
            if fetch(cache, file_id, block, nbytes, evicted):
                if run_bytes:
                    read_scan_run(db, table, run_start, block, run_bytes)
                    run_bytes = 0
                hits += 1
                clock._now_us += hit_us
            else:
                if not run_bytes:
                    run_start = block
                misses += 1
                run_bytes += nbytes
        if run_bytes:
            read_scan_run(db, table, run_start, end, run_bytes)
    finally:
        cache.count_probes(hits, misses, *evicted)


def fetch(cache, file_id: int, block_index: int, nbytes: int, evicted: List[int]) -> bool:
    """The pre-range ``BlockCache.fetch``: probe one block, and on a miss install."""
    key = (file_id, block_index)
    entries = cache._entries
    if key in entries:
        entries.move_to_end(key)
        return True
    capacity = cache.capacity_bytes
    if nbytes <= capacity:
        entries[key] = nbytes
        used = cache._used_bytes + nbytes
        while used > capacity:
            _, dropped = entries.popitem(last=False)
            used -= dropped
            evicted[0] += 1
            evicted[1] += dropped
        cache._used_bytes = used
    return False


def read_scan_run(db, table, first: int, end: int, nbytes: int) -> None:
    """The pre-range ``DB._read_scan_run``: one sequential read, verified."""
    device = db.device
    device.read(nbytes, USER_SCAN, sequential=True)
    if device.faults is not None:
        try:
            db._verify_block_read(table, range(first, end))
        except CorruptionError:
            if db.block_cache is not None:
                db.block_cache.evict_blocks(table.file_id, range(first, end))
            raise
