"""The eager all-sources range scan, kept as a test oracle.

Until the level-cursor rewrite ``DB.scan`` opened an iterator on *every*
file right of the start key in every level, plus every slice linked to
them, merged the lot, and then charged the device for each of those
sources in turn.  That version is trivially right — it cannot skip a
source it should have read — so it lives on here, verbatim in behaviour,
as the reference the lazy scan is compared against: same results, and the
same charge sequence (device reads, cache probes and installs — a missing
block is installed when its probe misses, and a run that fails its CRC
leaves none of its blocks resident — CRC verification, in the same
order), hence the same virtual clock, the same
``USER_SCAN`` counters and the same block-cache LRU state.

``eager_scan(db, start_key, count)`` drives a real :class:`~repro.lsm.db.DB`
exactly as the old method did, so a test runs two identically-built stores
side by side, one through ``db.scan`` and one through this function.
"""

from typing import List, Tuple

from repro.errors import CorruptionError
from repro.lsm.db import _check_key
from repro.lsm.iterators import merge_records
from repro.lsm.keys import clamp_range, key_successor
from repro.lsm.stats import ACT_SCAN
from repro.ssd.metrics import USER_SCAN


def eager_scan(db, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
    """The pre-cursor ``DB.scan``: one merge source per file and slice."""
    db._check_open()
    _check_key(start_key)
    if count <= 0:
        return []
    db.policy.on_operation(False)
    start_time = db.clock.now()
    db.engine_stats.scans += 1

    sources: List = [db._memtable.iter_from(start_key)]
    tables: List = []
    slices: List = []
    for level in range(db.version.num_levels):
        for table in db.version.files(level):
            if table.max_key >= start_key:
                tables.append(table)
                sources.append(iter(table.records_in_range(start_key, None)))
            for piece in table.slice_links:
                if piece.hi is None or piece.hi > start_key:
                    slices.append(piece)
                    sources.append(iter(piece.records_in_range(start_key, None)))

    results: List[Tuple[bytes, bytes]] = []
    for record in merge_records(sources):
        db.clock.advance(db.config.costs.scan_per_record_us)
        if record.is_tombstone:
            continue
        results.append((record.key, record.value))
        if len(results) >= count:
            break
    db.engine_stats.scanned_records += len(results)

    end_hi = key_successor(results[-1][0]) if len(results) >= count else None
    for table in tables:
        _charge_range_read(db, table, start_key, end_hi)
    for piece in slices:
        lo, hi = clamp_range(piece.lo, piece.hi, start_key, end_hi)
        _charge_range_read(db, piece.source, lo, hi)
    db.engine_stats.scan_sources += len(tables) + len(slices)
    db.engine_stats.charge_activity(ACT_SCAN, db.clock.now() - start_time)
    db._maintenance_step()
    return results


def _charge_range_read(db, table, lo, hi) -> None:
    blocks = table.blocks_in_range(lo, hi)
    if not blocks:
        return
    cache = db.block_cache
    if cache is None:
        _read_run(db, table, blocks)
        return
    run: List[Tuple[int, int]] = []
    for block_index, nbytes in blocks:
        if cache.lookup(table.file_id, block_index):
            if run:
                _read_run(db, table, run)
                run = []
            db.clock.advance(db.config.costs.cache_hit_us)
        else:
            run.append((block_index, nbytes))
            cache.insert(table.file_id, block_index, nbytes)
    if run:
        _read_run(db, table, run)


def _read_run(db, table, run) -> None:
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
