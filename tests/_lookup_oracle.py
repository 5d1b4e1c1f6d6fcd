"""The per-probe point lookup, kept as a test oracle.

Until the per-lookup rework every filter probe of a ``DB.get`` paid its own
way: ``may_contain`` re-read (and on a miss wrote) a process-global hash
memo (here ``_HASH_MEMO``, this oracle's own: the engine keeps none),
slice coverage was ``Slice.covers_key`` -> ``in_range``, each constant
CPU charge a ``clock.advance`` call, each skipped filter a ``registry.add``,
and a positive filter bisected the key column twice (``block_for_key`` for
the charge, ``SSTable.get`` for the record).  Those routines live on here,
verbatim in behaviour, as the reference the reworked lookup is compared
against: same value, and the same charge sequence — clock adds, counters,
cache probes and installs, trace events, CRC verification — in the same
order.

``oracle_get(db, key)`` drives a real :class:`~repro.lsm.db.DB` exactly as
the old ``DB.get`` did, so a test runs two identically-built stores side by
side, one through ``db.get`` and one through this function.
"""

import zlib
from bisect import bisect_left, bisect_right
from typing import Optional

from repro.lsm.config import (
    BLOOM_CHECK_US,
    CACHE_HIT_US,
    INDEX_LOOKUP_US,
    MEMTABLE_LOOKUP_US,
)
from repro.lsm.db import _check_key
from repro.lsm.record import KIND_DELETE
from repro.lsm.stats import ACT_READ_KEY
from repro.obs.events import EV_CACHE_HIT, EV_CACHE_MISS
from repro.ssd.metrics import USER_READ

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: The per-key ``(h1, h2)`` memo the per-probe ``may_contain`` read and wrote.
_HASH_MEMO: dict = {}
_HASH_MEMO_MAX = 1 << 20


def may_contain(bloom, key: bytes) -> bool:
    """The per-probe ``BloomFilter.may_contain``: memo read, write on miss.

    Bit ``p`` is read from the filter's one-byte-per-bit table, entry ``p``
    — the packed array's ``bits[p >> 3] & (1 << (p & 7))``, at the same
    profiled cost (none).
    """
    nbits = bloom._nbits
    if nbits == 0:
        return not bloom._empty
    cache = _HASH_MEMO
    pair = cache.get(key)
    if pair is None:
        pair = (zlib.crc32(key), (zlib.adler32(key) << 1) | 1)
        if len(cache) < _HASH_MEMO_MAX:
            cache[key] = pair
    h1, h2 = pair
    flags = bloom._flags
    for _ in range(bloom._rounds.stop):  # k rounds; range() is no profiled call
        if not flags[h1 % nbits]:
            return False
        h1 = (h1 + h2) & _MASK64
    return True


def block_for_key(table, key: bytes) -> Optional[tuple]:
    """The ``(block_index, nbytes)`` a point lookup of ``key`` reads.

    Returns None when ``key`` falls outside the file's range.
    """
    if not table.covers_key(key):
        return None
    index = bisect_left(table._keys, key)
    if index == len(table._keys):
        index -= 1
    starts, sizes = table.block_index()
    block = bisect_right(starts, index) - 1
    return block, sizes[block]


def oracle_get(db, key: bytes) -> Optional[bytes]:
    """The old ``DB.get`` around the per-probe ``_lookup``."""
    if db._closed:
        db._check_open()
    if type(key) is not bytes or not key:
        _check_key(key)
    db.policy.on_operation(False)
    clock = db.clock
    start = clock._now_us
    counters = db._counters
    counters["engine.gets"] = counters.get("engine.gets", 0) + 1
    record = _lookup(db, key)
    db._count(ACT_READ_KEY, clock._now_us - start)
    db.sched.on_operation()
    if record is None or record[2] == KIND_DELETE:
        return None
    counters["engine.get_hits"] = counters.get("engine.get_hits", 0) + 1
    return record[3]


def _lookup(db, key: bytes):
    advance = db.clock.advance
    advance(MEMTABLE_LOOKUP_US)
    record = db._memtable.get(key)
    if record is not None:
        return record
    version = db.version
    bloom_us = BLOOM_CHECK_US
    count = db._count
    # Level 0: overlapping files, newest first.
    for table in reversed(version.files(0)):
        if not table.min_key <= key <= table.max_key:
            continue
        record = _lookup_unit(db, key, table, advance, bloom_us, count)
        if record is not None:
            return record
    # Deeper levels.  Every sorted level charges its index probe even
    # when empty.
    if version.sorted_levels:
        index_us = INDEX_LOOKUP_US
        find_responsible = version.find_responsible_file
        for level in range(1, version.num_levels):
            advance(index_us)
            table = find_responsible(level, key)
            if table is not None:
                record = _lookup_unit(db, key, table, advance, bloom_us, count)
                if record is not None:
                    return record
    else:
        for level in range(1, version.num_levels):
            # Tiered levels are append-ordered like Level 0.
            for table in reversed(version.files(level)):
                if not table.min_key <= key <= table.max_key:
                    continue
                record = _lookup_unit(db, key, table, advance, bloom_us, count)
                if record is not None:
                    return record
    return None


def _lookup_unit(db, key: bytes, table, advance, bloom_us: float, count):
    """Check one level-resident SSTable and its linked slices.

    The first slice, newest link first, that holds the key answers.  A
    slice whose key span ``[min_key, max_key]`` misses the key is skipped
    before its filter is charged, as a file outside its range is; the
    span lies inside ``[lo, hi)``, so the per-probe ``covers_key`` call
    before it decides nothing and is kept for its host cost.
    """
    if table.slice_links:
        for piece in table.links_newest_first():
            if not piece.covers_key(key):
                continue
            if not piece.min_key <= key <= piece.max_key:
                continue
            advance(bloom_us)
            source = piece.source
            bloom = source._bloom
            if bloom is None:
                bloom = source.bloom
            if not may_contain(bloom, key):
                count("engine.bloom_negative_skips")
                continue
            _charge_point_read(db, source, key)
            record = piece.get(key)
            if record is not None:
                return record
    if not table.min_key <= key <= table.max_key:
        # The key fell in this file's responsibility gap: only the
        # slices (checked above) could have held it.
        return None
    advance(bloom_us)
    bloom = table._bloom
    if bloom is None:
        bloom = table.bloom
    if not may_contain(bloom, key):
        count("engine.bloom_negative_skips")
        return None
    _charge_point_read(db, table, key)
    return table.get(key)


def _charge_point_read(db, table, key: bytes) -> None:
    """Charge one data-block read, via the block cache when enabled."""
    located = block_for_key(table, key)
    if located is None:
        return
    block_index, nbytes = located
    cache = db.block_cache
    if cache is not None and cache.lookup(table.file_id, block_index):
        db.clock.advance(CACHE_HIT_US)
        db.tracer.emit(
            EV_CACHE_HIT, file_id=table.file_id, block=block_index,
            nbytes=nbytes,
        )
        return
    if cache is not None:
        db.tracer.emit(
            EV_CACHE_MISS, file_id=table.file_id, block=block_index,
            nbytes=nbytes,
        )
    device = db.device
    device.read(nbytes, USER_READ)
    if device.faults is not None:
        # Verify before the cache insert so a corrupt block is
        # never served from memory later.
        db._verify_block_read(table, (block_index,))
    counters = db._counters
    counters["engine.sstable_blocks_read"] = (
        counters.get("engine.sstable_blocks_read", 0) + 1
    )
    if cache is not None:
        cache.insert(table.file_id, block_index, nbytes)
