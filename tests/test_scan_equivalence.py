"""Directed scans: which files a scan opens, how a charged range meets
the block cache, CRC-verified reads, and the sources a scan of a large
tree opens.

The scan's results and charges over every policy, cache and device
stack, with the merge's opened units, are frozen in
``tests/test_retired_oracles.py`` (``retired_oracles/scan``); the cases
here check behaviour against hand-built trees and the store's own state.
The file keeps the name it had when these cases also ran beside the scan
oracles.
"""

import random
import re

import pytest

from repro import DB
from repro.core.slice import Slice, attach_slice
from repro.errors import CorruptionError, EngineError
from repro.faults.plan import FaultPlan
from repro.lsm import iterators
from repro.lsm.config import SCAN_PER_RECORD_US, LSMConfig
from repro.lsm.record import delete_record, put_record
from repro.lsm.sstable import SSTable
from repro.ssd.profile import ENTERPRISE_PCIE


def tiny(cache_bytes: int) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=512,
        sstable_target_bytes=512,
        block_bytes=128,
        fan_out=3,
        level1_capacity_bytes=1024,
        max_levels=5,
        block_cache_bytes=cache_bytes,
    )


def make_key(index: int) -> bytes:
    return str(index).zfill(6).encode()


def charged_state(db: DB) -> tuple:
    """Everything a scan may charge, as one comparable value."""
    cache = db.block_cache
    residency = (
        (cache.cached_blocks(), cache.used_bytes) if cache is not None else None
    )
    return db.clock.now(), db.registry.counters(), db.registry.gauges(), residency


def build(policy: str, cache_bytes: int, plan: bool = False) -> DB:
    return DB(
        config=tiny(cache_bytes),
        policy=policy,
        profile=ENTERPRISE_PCIE,
        fault_plan=FaultPlan() if plan else None,
    )


# ----------------------------------------------------------------------
# Directed cases on hand-built trees
# ----------------------------------------------------------------------
def hand_built(
    policy: str, cache_bytes: int, levels: dict, links=(), deletes=(), plan=False,
) -> DB:
    """A store with ``levels[level]`` = key-index lists, one file each.

    Deeper levels are built first, so upper levels hold newer versions.
    ``links`` = ``(level, file position, source key indices)``: a frozen
    file holding those keys, linked whole onto that file.  Indices in
    ``deletes`` are written as tombstones wherever they appear.
    """
    db = build(policy, cache_bytes, plan)

    def table_of(indices) -> SSTable:
        records = [
            delete_record(make_key(index), db._next_sequence())
            if index in deletes
            else put_record(
                make_key(index), b"L%03d" % index + b"q" * 30, db._next_sequence()
            )
            for index in indices
        ]
        return SSTable.from_records(db.next_file_id(), records, db.config)

    for level in sorted(levels, reverse=True):
        for indices in levels[level]:
            db.version.add_file(level, table_of(indices))
    for level, position, indices in links:
        source = table_of(indices)
        source.frozen = True
        source.refcount = 1
        piece = Slice(source, None, None, link_seq=source.file_id)
        attach_slice(db.version.files(level)[position], piece)
        db.version.note_linked_bytes(level, piece.size_bytes)
    db.version.check_invariants()
    return db


def opened(db: DB, start: int, count: int) -> int:
    """Scan once; return the sources the scan opened."""
    before = db.metrics().get("engine.scan_sources")
    db.scan(make_key(start), count)
    return db.metrics().get("engine.scan_sources") - before


@pytest.mark.parametrize("cache_bytes", (0, 1024))
class TestOpenedParity:
    """Which files a scan opened — what ``engine.scan_sources`` counts and
    the device is charged for — to the file: those a record-at-a-time
    merge that refills the winning source before it yields would open."""

    TWO_LEVELS = {1: [[0, 2, 4, 6, 8], [10, 12, 14]], 2: [[1, 3, 5, 7, 9, 11, 13]]}

    def test_ending_on_a_files_last_key_reaches_the_next_file(self, cache_bytes):
        """Several live sources: the merge refills the winner before it yields."""
        db = hand_built("udc", cache_bytes, self.TWO_LEVELS)
        assert opened(db, 0, 8) == 2  # ends on 7: file 1, level 2
        assert opened(db, 0, 9) == 3  # ends on 8: file 2 reached
        assert opened(db, 0, 10) == 3

    def test_with_one_live_source_the_next_file_is_not_reached(self, cache_bytes):
        """A single live source is read lazily: nothing is pulled past the end."""
        db = hand_built("udc", cache_bytes, {1: self.TWO_LEVELS[1]})
        assert opened(db, 0, 5) == 1  # ends on 8, file 2 unread
        assert opened(db, 0, 6) == 2
        # A second level with nothing at or after the start key is opened
        # (and counted) but not live: the scan is still the lazy one.
        db = hand_built("udc", cache_bytes, {1: self.TWO_LEVELS[1], 2: [[1, 3]]})
        assert opened(db, 4, 3) == 2
        assert opened(db, 4, 4) == 3

    def test_exhausted_store_has_opened_every_file_right_of_the_start(
        self, cache_bytes
    ):
        db = hand_built("udc", cache_bytes, self.TWO_LEVELS)
        assert opened(db, 0, 10_000) == 3
        assert opened(db, 11, 10_000) == 2
        assert opened(db, 0, 15) == 3  # exactly the store

    def test_all_tombstone_window_needs_a_second_round(self, cache_bytes):
        """The first bound covers three keys, all deleted: nothing to return yet."""
        levels = {1: [list(range(0, 10))], 2: [list(range(0, 16)), list(range(16, 30))]}
        db = hand_built("udc", cache_bytes, levels, deletes=frozenset(range(0, 10)))
        before = db.clock.now()
        assert opened(db, 0, 3) == 2
        assert [key for key, _ in db.scan(make_key(0), 3)] == [
            make_key(10), make_key(11), make_key(12)
        ]
        # Thirteen keys consumed per scan — ten tombstones, three live.
        assert db.clock.now() - before >= 2 * 13 * SCAN_PER_RECORD_US

    def test_start_past_a_levels_last_key_reads_the_last_files_links(
        self, cache_bytes
    ):
        levels = {1: [[0, 2, 4], [10, 12, 14]], 2: [[1, 3, 5]]}
        db = hand_built("ldc", cache_bytes, levels, [(1, 1, [9, 15, 17, 19])])
        # File 2 of level 1 and its link, plus level 2's last file (unread).
        assert opened(db, 16, 10) == 3
        assert [key for key, _ in db.scan(make_key(16), 10)] == [
            make_key(17), make_key(19)
        ]
        assert opened(db, 20, 1) == 3
        assert opened(db, 9, 2) == 3

    def test_level0_file_left_of_the_start_counts_only_with_links(self, cache_bytes):
        levels = {0: [[0, 2], [4, 6]], 1: [[1, 3, 5, 7, 9]]}
        db = hand_built("ldc", cache_bytes, levels, [(0, 0, [1, 8])])
        assert opened(db, 7, 5) == 3  # linked L0 file, link, level 1


class TestChargeEdges:
    def test_block_larger_than_the_cache_is_never_resident(self):
        db = build("ldc", 100)  # full blocks are ~128 bytes, a file's last is short
        for index in range(0, 200, 2):
            db.put(make_key(index), b"b%04d" % index + b"k" * 30)
        cache = db.block_cache

        def block_sizes() -> dict:
            tables = list(db.version.all_tables())
            tables += [p.source for table in tables for p in table.slice_links]
            return {
                (table.file_id, block): nbytes
                for table in tables
                for block, nbytes in enumerate(table.block_index()[1])
            }

        sizes = block_sizes()
        assert sum(nbytes > 100 for nbytes in sizes.values()) > len(sizes) // 2
        for start in (0, 51, 150):
            db.scan(make_key(start), 40)
            sizes = block_sizes()  # a scan can end in a compaction round
            assert all(sizes[key] <= 100 for key in cache.cached_blocks())
        assert db.metrics()["cache.misses"] > 20 > len(cache)

    def test_scan_inside_a_clock_capture_is_refused(self):
        db = DB(config=tiny(1024), policy="ldc")
        for index in range(0, 100, 2):
            db.put(make_key(index), b"c" * 30)
        before = charged_state(db)
        db.clock.begin_capture()
        try:
            with pytest.raises(EngineError, match="clock capture"):
                db.scan(make_key(0), 5)
        finally:
            assert db.clock.end_capture() == []
        assert charged_state(db) == before
        assert len(db.scan(make_key(0), 5)) == 5

    def test_a_float_or_bool_count_is_refused_before_anything_moves(self):
        """It used to count the scan, then fail inside the merge (2.5) or
        mean one record (True)."""
        db = DB(config=tiny(1024), policy="ldc")
        for index in range(0, 100, 2):
            db.put(make_key(index), b"c" * 30)
        before = charged_state(db)
        for count in (2.5, 3.0, True, False):
            with pytest.raises(TypeError, match="scan count must be an int"):
                db.scan(make_key(0), count)
        assert charged_state(db) == before
        assert len(db.scan(make_key(0), 3)) == 3

    @pytest.mark.parametrize("policy", ("udc", "ldc"))
    def test_blocks_after_a_failing_run_are_not_probed(self, policy):
        """A hit closes a run that fails its CRC while blocks further along
        the same range are resident: those are never probed, so the raise
        leaves their LRU places as they were."""
        db = hand_built(policy, 4096, {1: [list(range(0, 120, 2))]}, plan=True)
        db.scan(make_key(40), 10)  # the middle of the range is resident
        cache = db.block_cache
        before = cache.cached_blocks()
        assert len(before) >= 3
        faults = db.device.faults
        faults.corrupt_read(faults.read_count + 1)
        with pytest.raises(CorruptionError, match=r"block\(s\) \[0, "):
            db.scan(make_key(0), 50)
        # The run's blocks are dropped, the hit that closed it is refreshed,
        # and the resident blocks after it keep their places.
        assert cache.cached_blocks() == before[1:] + before[:1]
        assert len(db.scan(make_key(0), 50)) == 50

    def test_a_range_mixing_hits_and_misses(self):
        db = one_range(4096)
        db.scan(make_key(20), 6)
        db.scan(make_key(60), 6)
        hits, misses = counter(db, "cache.hits"), counter(db, "cache.misses")
        db.scan(make_key(0), 50)  # runs closed by hits, hits between runs
        assert counter(db, "cache.hits") > hits
        assert counter(db, "cache.misses") > misses

    def test_an_install_evicts_a_later_block_of_the_same_range(self):
        db = one_range(300)
        db.scan(make_key(0), 30)
        resident = db.block_cache.cached_blocks()
        assert resident  # the range's last blocks
        hits = counter(db, "cache.hits")
        db.scan(make_key(0), 30)  # the same range: its installs evict them
        assert counter(db, "cache.hits") == hits
        assert db.block_cache.cached_blocks() == resident

    def test_blocks_larger_than_the_cache(self):
        db = one_range(100)
        for start in (0, 31, 0):
            db.scan(make_key(start), 20)
        assert counter(db, "cache.hits") == 0 < counter(db, "cache.misses")


def one_range(cache_bytes: int) -> DB:
    """One level-1 file, no links: a scan charges exactly one range."""
    return hand_built("udc", cache_bytes, {1: [list(range(0, 120, 2))]})


def counter(db: DB, key: str):
    return db.metrics().get(key, 0)


@pytest.mark.parametrize("cache_bytes", (0, 1024, 4096))
@pytest.mark.parametrize("policy", ("udc", "ldc"))
class TestVerifiedReads:
    """The CRC-verifying step of the charge loop (fault-injecting device)."""

    @staticmethod
    def loaded(policy: str, cache_bytes: int, plan: bool = True) -> DB:
        db = build(policy, cache_bytes, plan)
        rng = random.Random(11)
        for _ in range(2):
            for index in rng.sample(range(300), 200):
                db.put(make_key(index), b"payload-%04d" % index + b"y" * 24)
        return db

    def test_clean_device_charges_identically(self, policy, cache_bytes):
        """A clean fault plan charges what a store with no plan charges."""
        verified = self.loaded(policy, cache_bytes)
        plain = self.loaded(policy, cache_bytes, plan=False)
        for start in (0, 37, 150, 299, 500):
            for _ in range(2):  # again, over a warm cache
                got = verified.scan(make_key(start), 25)
                assert got == plain.scan(make_key(start), 25)
                assert charged_state(verified) == charged_state(plain)

    def test_corrupt_run_is_detected_and_never_cached(self, policy, cache_bytes):
        """Mid-range: the failing run's blocks are not resident afterwards,
        and the store stays readable."""
        for read_ordinal in (1, 2, 3, 5):  # which device read of the scan flips bits
            db = self.loaded(policy, cache_bytes)
            db.scan(make_key(70), 30)  # part of the range is resident
            faults = db.device.faults
            faults.corrupt_read(faults.read_count + read_ordinal)
            with pytest.raises(CorruptionError) as error:
                db.scan(make_key(40), 60)
            file_id, blocks = re.match(
                r"file (\d+) block\(s\) \[([\d, ]+)\]", str(error.value)
            ).groups()
            failed = {(int(file_id), int(block)) for block in blocks.split(",")}
            if db.block_cache is not None:
                assert not failed & set(db.block_cache.cached_blocks())
            assert db.metrics()["faults.corruptions_detected"] == 1
            expected = [item for item in db.logical_items() if item[0] >= make_key(40)]
            assert db.scan(make_key(40), 60) == expected[:60]


# ----------------------------------------------------------------------
# Sources opened per scan
# ----------------------------------------------------------------------
def paper_shaped_store(policy: str) -> DB:
    """~10k 1-KB records under default geometry: a >=150-file tree."""
    db = DB(config=LSMConfig(), policy=policy)
    rng = random.Random(3)
    indices = list(range(10_000))
    rng.shuffle(indices)
    for index in indices:
        db.put(str(index).zfill(16).encode(), b"%04d" % (index % 10_000) * 250)
    return db


def scan_recording_sources(db: DB, start_key: bytes, count: int, monkeypatch):
    """Scan once; return (sources counted, files opened, tables charged)."""
    opened, charged = [], []
    unit_windows = iterators.unit_windows
    # No block cache: each charged range is exactly one device read.
    assert db.block_cache is None
    read_run = db._read_scan_run

    def opening(table, lo):
        opened.append(table)
        return unit_windows(table, lo)

    def charging(table, first, end, nbytes, hits):
        charged.append(table)
        read_run(table, first, end, nbytes, hits)

    before = db.metrics().get("engine.scan_sources")
    with monkeypatch.context() as patch:
        patch.setattr(iterators, "unit_windows", opening)
        patch.setattr(db, "_read_scan_run", charging)
        assert len(db.scan(start_key, count)) == count
    return db.metrics().get("engine.scan_sources") - before, opened, charged


class TestSourcesOpened:
    STARTS = [str(index).zfill(16).encode() for index in range(0, 9_800, 490)]

    def test_udc_scan_opens_a_handful_of_a_150_file_tree(self, monkeypatch):
        db = paper_shaped_store("udc")
        version = db.version
        assert version.num_files() >= 150
        sorted_levels = sum(
            1 for level in range(1, version.num_levels) if version.files(level)
        )
        for start in self.STARTS:
            bound = 1 + version.num_files(0) + 2 * sorted_levels + 2
            sources, opened, charged = scan_recording_sources(
                db, start, 100, monkeypatch
            )
            assert sources == len(opened) <= bound, (start, sources, bound)
            # Charged: the opened files that hold a key of the range.
            assert set(charged) <= set(opened) and len(charged) == len(set(charged))
            assert not any(table.frozen for table in charged)

    def test_ldc_excess_is_the_links_of_the_touched_files(self, monkeypatch):
        """The read-side cost of linking (§III-B.3), readable per scan."""
        db = paper_shaped_store("ldc")
        linked_scans = 0
        for start in self.STARTS:
            sources, opened, charged = scan_recording_sources(
                db, start, 100, monkeypatch
            )
            links = [piece for table in opened for piece in table.slice_links]
            assert sources - len(opened) == len(links)
            frozen = [table for table in charged if table.frozen]
            assert set(frozen) <= {piece.source for piece in links}
            linked_scans += bool(frozen)
        assert linked_scans, "no scan read a linked slice; the test is vacuous"


class TestResponsibilityInvariant:
    """What the level streams rely on is checked, not assumed."""

    def test_misplaced_slice_fails_check_invariants(self):
        db = paper_shaped_store("ldc")
        db.check_invariants()
        level, position, table = next(
            (level, position, table)
            for level in range(1, db.version.num_levels)
            for position, table in enumerate(db.version.files(level))
            if table.slice_links and position + 1 < db.version.num_files(level)
        )
        # Hang the slice on the next file over: its keys now sit left of
        # that file's responsibility range, where no get or scan looks.
        piece = table.slice_links.pop()
        db.version.files(level)[position + 1].slice_links.append(piece)
        with pytest.raises(EngineError, match="responsibility range"):
            db.check_invariants()
