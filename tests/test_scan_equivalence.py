"""``DB.scan`` (window merge, one cache call per charged range) against its oracles.

Three stores are built identically and driven through the same puts,
deletes and scans — one through ``DB.scan``, one through
``tests/_scan_oracle.cursor_scan`` (the record-at-a-time scan it replaced)
and one through ``eager_scan`` (the all-sources scan before that).  After
*every* scan they must agree on the results and on everything the scan
charged: the virtual clock bit for bit, every registry counter
(``USER_SCAN`` bytes, requests and time, block-cache hits, misses,
evictions and evicted bytes, engine counters) and the block cache's
residency *in LRU order* — i.e. the window merge changes which host
objects are touched, never what is charged.

Against the cursor oracle that includes ``engine.scan_sources``, the
files and slice links a scan's merge opened; the eager oracle opens every
source, so that one counter is left out of its comparison (second half of
this file).

``TestAgainstWindowScan`` pair-runs ``DB.scan`` with the third oracle,
``window_scan``: the same window merge with the pool assembled memtable
first, a ``BlockCache.fetch`` per block and a ``count_probes`` per range.
Besides everything charged it compares the merge's own output and the
units it left opened.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DB, DeviceConfig, FlashSpec
from repro.core.slice import Slice, attach_slice
from repro.errors import CorruptionError, EngineError
from repro.faults.plan import FaultPlan
from repro.lsm import iterators
from repro.lsm.config import SCAN_PER_RECORD_US, LSMConfig
from repro.lsm.record import delete_record, put_record
from repro.lsm.sstable import SSTable
from repro.ssd.metrics import USER_SCAN
from repro.ssd.profile import ENTERPRISE_PCIE

from . import _scan_oracle as scan_oracle
from ._scan_oracle import cursor_scan, eager_scan, window_scan

POLICIES = ("udc", "ldc", "tiered", "delayed")
#: Block cache sizes, in 128-byte blocks: 0 = no cache; 1 KB = eight
#: blocks, so every scan evicts; 4 KB holds about half the store; 1 MB
#: holds all of it.
SMALL_CACHES = (0, 1024)
LARGER_CACHES = (0, 4096, 1024 * 1024)
#: What the store runs on: the bare device, flash under a background
#: compaction thread (reads wait on the channel, so they read the clock),
#: or an empty fault plan (every scan read is CRC-verified).
STACKS = ("plain", "flash+sched", "plan")
FLASH = FlashSpec(page_bytes=256, pages_per_block=16, logical_bytes=256 * 1024)

#: Stored keys are the even indices; odd indices are gap keys.
MAX_INDEX = 120


def tiny(cache_bytes: int, bg_threads: int = 0) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=512,
        sstable_target_bytes=512,
        block_bytes=128,
        fan_out=3,
        level1_capacity_bytes=1024,
        max_levels=5,
        block_cache_bytes=cache_bytes,
        bg_threads=bg_threads,
    )


def make_key(index: int) -> bytes:
    return str(index).zfill(6).encode()


def charged_state(db: DB, without=()) -> tuple:
    """Everything a scan may charge, as one comparable value."""
    counters = db.registry.counters()
    for key in without:
        counters.pop(key, None)
    cache = db.block_cache
    residency = (
        (cache.cached_blocks(), cache.used_bytes) if cache is not None else None
    )
    return db.clock.now(), counters, db.registry.gauges(), residency


def build(policy: str, cache_bytes: int, stack: str) -> DB:
    return DB(
        config=tiny(cache_bytes, bg_threads=1 if stack == "flash+sched" else 0),
        policy=policy,
        profile=DeviceConfig(flash=FLASH) if stack == "flash+sched" else ENTERPRISE_PCIE,
        fault_plan=FaultPlan() if stack == "plan" else None,
    )


class Trio:
    """A store read through ``DB.scan`` beside its cursor- and eagerly-scanned twins."""

    def __init__(self, policy: str, cache_bytes: int, stack: str = "plain", stores=()):
        self.window, self.cursor, self.eager = stores or (
            build(policy, cache_bytes, stack) for _ in range(3)
        )
        self.stores = (self.window, self.cursor, self.eager)
        #: Counters the eager oracle cannot pin: it opens every source.
        self.eager_blind = ("engine.scan_sources",)

    def put(self, key: bytes, value: bytes) -> None:
        for db in self.stores:
            db.put(key, value)

    def delete(self, key: bytes) -> None:
        for db in self.stores:
            db.delete(key)

    def scan(self, start_key: bytes, count: int):
        got = self.window.scan(start_key, count)
        assert got == cursor_scan(self.cursor, start_key, count)
        assert got == eager_scan(self.eager, start_key, count)
        self.assert_same_charges()
        return got

    def assert_same_charges(self) -> None:
        assert charged_state(self.window) == charged_state(self.cursor)
        blind = self.eager_blind
        assert charged_state(self.window, blind) == charged_state(self.eager, blind)

    def user_scan(self, field: str):
        return self.window.registry.counter(f"device.read.{USER_SCAN}.{field}")


stored_indices = st.integers(0, MAX_INDEX // 2).map(lambda index: 2 * index)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), stored_indices, st.binary(min_size=1, max_size=40)),
        st.tuples(st.just("delete"), stored_indices, st.none()),
        # Start anywhere — stored key, gap key, past the last key — and
        # ask for one record, a handful, or more than the store holds.
        st.tuples(
            st.just("scan"),
            st.integers(0, MAX_INDEX + 4),
            st.sampled_from((1, 2, 5, 17, 10_000)),
        ),
    ),
    max_size=200,
)


def check_drawn_operations(trio: Trio, ops) -> None:
    model = {}
    # Start from a multi-level tree (with live links under LDC), so
    # even a short drawn sequence scans more than a memtable.
    rng = random.Random(5)
    for index in rng.choices(range(0, MAX_INDEX + 1, 2), k=150):
        model[make_key(index)] = b"seed-%03d" % index + b"s" * 25
        trio.put(make_key(index), model[make_key(index)])
    for kind, index, arg in ops:
        key = make_key(index)
        if kind == "put":
            trio.put(key, arg)
            model[key] = arg
        elif kind == "delete":
            trio.delete(key)
            model.pop(key, None)
        else:
            expected = sorted(item for item in model.items() if item[0] >= key)
            assert trio.scan(key, arg) == expected[:arg]
    trio.scan(b"0", 10_000)
    assert list(trio.window.logical_items()) == sorted(model.items())
    trio.window.check_invariants()


def check_edge_cases_on_a_deep_tree(trio: Trio) -> None:
    """Gap keys, the far end, oversized counts and tombstone runs."""
    rng = random.Random(7)
    live = {}
    for _ in range(3):  # overwrites spread versions over the levels
        for index in rng.sample(range(0, 400, 2), 200):
            value = b"v%04d" % rng.randrange(10_000) + b"x" * 30
            trio.put(make_key(index), value)
            live[make_key(index)] = value
    # A run of deletes: keys 100..138 become tombstones above live data.
    for index in range(100, 140, 2):
        trio.delete(make_key(index))
        live.pop(make_key(index), None)
    ordered = sorted(live.items())

    def expect(start: bytes, count: int):
        return [item for item in ordered if item[0] >= start][:count]

    last = ordered[-1][0]
    cases = [
        (make_key(51), 10),  # gap key between two stored keys
        (b"0", 10_000),  # count larger than the store
        (last, 5),  # the last key itself
        (last + b"\x00", 5),  # just past the last key
        (make_key(10_000), 3),  # far past it
        (make_key(90), 5),  # count lands exactly before the tombstone run
        (make_key(90), 6),  # ... and has to cross the whole run
        (make_key(101), 1),  # starts inside the run
    ]
    for start, count in cases:
        assert trio.scan(start, count) == expect(start, count), (start, count)
    assert trio.user_scan("bytes") > 0
    assert trio.user_scan("ops") > 0
    trio.window.check_invariants()


def check_scans_ending_on_each_files_last_key(trio: Trio) -> None:
    """Where the record-at-a-time merge has just refilled from the next file."""
    rng = random.Random(13)
    live = set()
    for _ in range(2):
        for index in rng.sample(range(0, 300, 2), 150):
            trio.put(make_key(index), b"w%04d" % index + b"z" * 28)
            live.add(make_key(index))
    ordered = sorted(live)
    boundaries = sorted(
        {table.max_key for table in trio.window.version.all_tables()} & live
    )
    assert len(boundaries) >= 3
    for boundary in boundaries:
        position = ordered.index(boundary)
        for back in (0, 1, 7):  # end on it, from its neighbour and from afar
            first = max(0, position - back)
            count = position - first + 1
            assert trio.scan(ordered[first], count)[-1][0] == boundary
            trio.scan(ordered[first], count + 1)


hypothesis_budget = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("cache_bytes", SMALL_CACHES)
@pytest.mark.parametrize("policy", POLICIES)
class TestAgainstEagerOracle:
    """The bare device, no cache and a cache every scan evicts from.

    Named for the first oracle; every scan here is compared with both.
    """

    @given(ops=operations)
    @hypothesis_budget
    def test_same_results_and_charges(self, policy, cache_bytes, ops):
        check_drawn_operations(Trio(policy, cache_bytes), ops)

    def test_edge_cases_on_a_deep_tree(self, policy, cache_bytes):
        check_edge_cases_on_a_deep_tree(Trio(policy, cache_bytes))

    def test_scans_ending_on_each_files_last_key(self, policy, cache_bytes):
        check_scans_ending_on_each_files_last_key(Trio(policy, cache_bytes))


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("cache_bytes", LARGER_CACHES)
@pytest.mark.parametrize("policy", POLICIES)
class TestAcrossStacksAndCaches:
    """The same three checks over what the store runs on and how much it caches."""

    @given(ops=operations)
    @hypothesis_budget
    def test_same_results_and_charges(self, policy, cache_bytes, stack, ops):
        check_drawn_operations(Trio(policy, cache_bytes, stack), ops)

    def test_edge_cases_on_a_deep_tree(self, policy, cache_bytes, stack):
        check_edge_cases_on_a_deep_tree(Trio(policy, cache_bytes, stack))

    def test_scans_ending_on_each_files_last_key(self, policy, cache_bytes, stack):
        check_scans_ending_on_each_files_last_key(Trio(policy, cache_bytes, stack))


# ----------------------------------------------------------------------
# Directed cases on hand-built trees
# ----------------------------------------------------------------------
def hand_built(
    policy: str, cache_bytes: int, levels: dict, links=(), deletes=(), copies=2,
    stack="plain",
):
    """Twin stores with ``levels[level]`` = key-index lists, one file each.

    Deeper levels are built first, so upper levels hold newer versions.
    ``links`` = ``(level, file position, source key indices)``: a frozen
    file holding those keys, linked whole onto that file.  Indices in
    ``deletes`` are written as tombstones wherever they appear.
    """
    stores = []
    for _ in range(copies):
        db = build(policy, cache_bytes, stack)

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
        stores.append(db)
    return stores


def scan_both(window: DB, cursor: DB, start: int, count: int) -> int:
    """Scan the twins; return the sources the scan opened (equal on both)."""
    before = window.metrics().get("engine.scan_sources")
    got = window.scan(make_key(start), count)
    assert got == cursor_scan(cursor, make_key(start), count)
    assert charged_state(window) == charged_state(cursor)
    return window.metrics().get("engine.scan_sources") - before


@pytest.mark.parametrize("cache_bytes", SMALL_CACHES)
class TestOpenedParity:
    """Which files a scan opened — what ``engine.scan_sources`` counts and the
    device is charged for — is the record-at-a-time merge's set, to the file."""

    TWO_LEVELS = {1: [[0, 2, 4, 6, 8], [10, 12, 14]], 2: [[1, 3, 5, 7, 9, 11, 13]]}

    def test_ending_on_a_files_last_key_reaches_the_next_file(self, cache_bytes):
        """Several live sources: the merge refills the winner before it yields."""
        window, cursor = hand_built("udc", cache_bytes, self.TWO_LEVELS)
        assert scan_both(window, cursor, 0, 8) == 2  # ends on 7: file 1, level 2
        assert scan_both(window, cursor, 0, 9) == 3  # ends on 8: file 2 reached
        assert scan_both(window, cursor, 0, 10) == 3

    def test_with_one_live_source_the_next_file_is_not_reached(self, cache_bytes):
        """A single live source is read lazily: nothing is pulled past the end."""
        levels = {1: self.TWO_LEVELS[1]}
        window, cursor = hand_built("udc", cache_bytes, levels)
        assert scan_both(window, cursor, 0, 5) == 1  # ends on 8, file 2 unread
        assert scan_both(window, cursor, 0, 6) == 2
        # A second level with nothing at or after the start key is opened
        # (and counted) but not live: the scan is still the lazy one.
        levels = {1: self.TWO_LEVELS[1], 2: [[1, 3]]}
        window, cursor = hand_built("udc", cache_bytes, levels)
        assert scan_both(window, cursor, 4, 3) == 2
        assert scan_both(window, cursor, 4, 4) == 3

    def test_exhausted_store_has_opened_every_file_right_of_the_start(
        self, cache_bytes
    ):
        window, cursor = hand_built("udc", cache_bytes, self.TWO_LEVELS)
        assert scan_both(window, cursor, 0, 10_000) == 3
        assert scan_both(window, cursor, 11, 10_000) == 2
        assert scan_both(window, cursor, 0, 15) == 3  # exactly the store

    def test_all_tombstone_window_needs_a_second_round(self, cache_bytes):
        """The first bound covers three keys, all deleted: nothing to return yet."""
        levels = {1: [list(range(0, 10))], 2: [list(range(0, 16)), list(range(16, 30))]}
        window, cursor = hand_built(
            "udc", cache_bytes, levels, deletes=frozenset(range(0, 10))
        )
        before = window.clock.now()
        assert scan_both(window, cursor, 0, 3) == 2
        assert [key for key, _ in window.scan(make_key(0), 3)] == [
            make_key(10), make_key(11), make_key(12)
        ]
        cursor_scan(cursor, make_key(0), 3)
        # Thirteen keys consumed per scan — ten tombstones, three live.
        assert window.clock.now() - before >= 2 * 13 * SCAN_PER_RECORD_US
        assert charged_state(window) == charged_state(cursor)

    def test_start_past_a_levels_last_key_reads_the_last_files_links(
        self, cache_bytes
    ):
        levels = {1: [[0, 2, 4], [10, 12, 14]], 2: [[1, 3, 5]]}
        links = [(1, 1, [9, 15, 17, 19])]
        window, cursor = hand_built("ldc", cache_bytes, levels, links)
        # File 2 of level 1 and its link, plus level 2's last file (unread).
        assert scan_both(window, cursor, 16, 10) == 3
        assert [key for key, _ in window.scan(make_key(16), 10)] == [
            make_key(17), make_key(19)
        ]
        cursor_scan(cursor, make_key(16), 10)
        assert scan_both(window, cursor, 20, 1) == 3
        assert scan_both(window, cursor, 9, 2) == 3

    def test_level0_file_left_of_the_start_counts_only_with_links(self, cache_bytes):
        levels = {0: [[0, 2], [4, 6]], 1: [[1, 3, 5, 7, 9]]}
        window, cursor = hand_built("ldc", cache_bytes, levels, [(0, 0, [1, 8])])
        assert scan_both(window, cursor, 7, 5) == 3  # linked L0 file, link, level 1


class TestChargeEdges:
    def test_block_larger_than_the_cache_is_never_resident(self):
        trio = Trio("ldc", 100)  # full blocks are ~128 bytes, a file's last is short
        for index in range(0, 200, 2):
            trio.put(make_key(index), b"b%04d" % index + b"k" * 30)
        cache = trio.window.block_cache

        def block_sizes() -> dict:
            tables = list(trio.window.version.all_tables())
            tables += [p.source for table in tables for p in table.slice_links]
            return {
                (table.file_id, block): nbytes
                for table in tables
                for block, nbytes in enumerate(table.block_index()[1])
            }

        sizes = block_sizes()
        assert sum(nbytes > 100 for nbytes in sizes.values()) > len(sizes) // 2
        for start in (0, 51, 150):
            trio.scan(make_key(start), 40)
            sizes = block_sizes()  # a scan can end in a compaction round
            assert all(sizes[key] <= 100 for key in cache.cached_blocks())
        assert trio.window.metrics()["cache.misses"] > 20 > len(cache)

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
        leaves their LRU places — and every counter — as the oracles do."""
        levels = {1: [list(range(0, 120, 2))]}  # one range per scan
        trio = Trio(policy, 4096, stores=hand_built(
            policy, 4096, levels, copies=3, stack="plan"
        ))
        trio.scan(make_key(40), 10)  # the middle of the range is resident
        cache = trio.window.block_cache
        before = cache.cached_blocks()
        assert len(before) >= 3
        for db in trio.stores:
            faults = db.device.faults
            faults.corrupt_read(faults.read_count + 1)
        with pytest.raises(CorruptionError, match=r"block\(s\) \[0, "):
            trio.window.scan(make_key(0), 50)
        with pytest.raises(CorruptionError):
            cursor_scan(trio.cursor, make_key(0), 50)
        with pytest.raises(CorruptionError):
            eager_scan(trio.eager, make_key(0), 50)
        # The run's blocks are dropped, the hit that closed it is refreshed,
        # and the resident blocks after it keep their places.
        assert cache.cached_blocks() == before[1:] + before[:1]
        trio.eager_blind += ("cache.hits",)  # see TestVerifiedReads
        trio.assert_same_charges()
        assert len(trio.scan(make_key(0), 50)) == 50


@pytest.mark.parametrize("cache_bytes", (0, 1024, 4096))
@pytest.mark.parametrize("policy", ("udc", "ldc"))
class TestVerifiedReads:
    """The CRC-verifying step of the charge loop (fault-injecting device)."""

    def load(self, trio: Trio) -> None:
        rng = random.Random(11)
        for _ in range(2):
            for index in rng.sample(range(300), 200):
                trio.put(make_key(index), b"payload-%04d" % index + b"y" * 24)

    def test_clean_device_charges_identically(self, policy, cache_bytes):
        trio = Trio(policy, cache_bytes, "plan")
        self.load(trio)
        for start in (0, 37, 150, 299, 500):
            trio.scan(make_key(start), 25)
            trio.scan(make_key(start), 25)  # again, over a warm cache

    def test_corrupt_run_is_detected_and_never_cached(self, policy, cache_bytes):
        """Mid-range: hits, misses and evictions tallied so far still count."""
        for read_ordinal in (1, 2, 3, 5):  # which device read of the scan flips bits
            trio = Trio(policy, cache_bytes, "plan")
            self.load(trio)
            trio.scan(make_key(70), 30)  # part of the range is resident
            for db in trio.stores:
                faults = db.device.faults
                faults.corrupt_read(faults.read_count + read_ordinal)
            with pytest.raises(CorruptionError):
                trio.window.scan(make_key(40), 60)
            with pytest.raises(CorruptionError):
                cursor_scan(trio.cursor, make_key(40), 60)
            with pytest.raises(CorruptionError):
                eager_scan(trio.eager, make_key(40), 60)
            # The engine counts a hit once it is charged, the eager oracle
            # at the probe: a hit probed just before the failing run
            # closed is in the oracle's count only.  Clock, residency and
            # every other counter — the evictions tallied so far among
            # them — agree.
            trio.eager_blind += ("cache.hits",)
            trio.assert_same_charges()
            # The store stays readable, and still agrees, after the fault.
            assert len(trio.scan(make_key(40), 60)) == 60


# ----------------------------------------------------------------------
# Against the window merge with one cache call per block
# ----------------------------------------------------------------------
class Pair:
    """A store read through ``DB.scan`` beside its twin read through
    ``tests/_scan_oracle.window_scan``, the scan it replaced."""

    def __init__(self, window: DB, per_block: DB):
        self.window, self.per_block = window, per_block

    @classmethod
    def built(cls, policy: str, cache_bytes: int, stack: str = "plain") -> "Pair":
        return cls(*(build(policy, cache_bytes, stack) for _ in range(2)))

    def put(self, key: bytes, value: bytes) -> None:
        self.window.put(key, value)
        self.per_block.put(key, value)

    def delete(self, key: bytes) -> None:
        self.window.delete(key)
        self.per_block.delete(key)

    def scan(self, start_key: bytes, count: int):
        # The merge alone first, on two fresh stream sets of one store:
        # the same pairs, keys consumed and last key, and the same units
        # left opened, window positions included.
        streams = self.window._scan_streams(start_key)
        oracle_streams = self.window._scan_streams(start_key)
        assert iterators.merge_streams(
            streams, start_key, count
        ) == scan_oracle.merge_streams(oracle_streams, start_key, count)
        assert streams == oracle_streams
        got = self.window.scan(start_key, count)
        assert got == window_scan(self.per_block, start_key, count)
        assert charged_state(self.window) == charged_state(self.per_block)
        return got

    def counter(self, key: str):
        return self.window.metrics().get(key, 0)


class TestAgainstWindowScan:
    """One cache call per charged range and one ``count_probes`` per scan,
    against a ``fetch`` per block and a ``count_probes`` per range; the
    merge pool assembled deepest stream first, against memtable first."""

    @given(
        policy=st.sampled_from(POLICIES),
        # 100 B: nearly every block is larger than the cache; 300 B: two
        # blocks, so an install evicts one further along the same range.
        cache_bytes=st.sampled_from((0, 100, 300, 1024, 4096)),
        stack=st.sampled_from(STACKS),
        ops=operations,
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_merge_results_and_charges(self, policy, cache_bytes, stack, ops):
        check_drawn_operations(Pair.built(policy, cache_bytes, stack), ops)

    def one_range(self, cache_bytes: int) -> Pair:
        """One level-1 file, no links: a scan charges exactly one range."""
        return Pair(*hand_built("udc", cache_bytes, {1: [list(range(0, 120, 2))]}))

    def test_a_range_mixing_hits_and_misses(self):
        pair = self.one_range(4096)
        pair.scan(make_key(20), 6)
        pair.scan(make_key(60), 6)
        hits, misses = pair.counter("cache.hits"), pair.counter("cache.misses")
        pair.scan(make_key(0), 50)  # runs closed by hits, hits between runs
        assert pair.counter("cache.hits") > hits
        assert pair.counter("cache.misses") > misses

    def test_an_install_evicts_a_later_block_of_the_same_range(self):
        pair = self.one_range(300)
        pair.scan(make_key(0), 30)
        resident = pair.window.block_cache.cached_blocks()
        assert resident  # the range's last blocks
        hits = pair.counter("cache.hits")
        pair.scan(make_key(0), 30)  # the same range: its installs evict them
        assert pair.counter("cache.hits") == hits
        assert pair.window.block_cache.cached_blocks() == resident

    def test_blocks_larger_than_the_cache(self):
        pair = self.one_range(100)
        for start in (0, 31, 0):
            pair.scan(make_key(start), 20)
        assert pair.counter("cache.hits") == 0 < pair.counter("cache.misses")


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

    def test_eager_oracle_opened_an_order_of_magnitude_more(self):
        window, cursor, eager = (paper_shaped_store("ldc") for _ in range(3))
        for start in self.STARTS:
            got = window.scan(start, 100)
            assert got == cursor_scan(cursor, start, 100)
            assert got == eager_scan(eager, start, 100)
        opened = {
            name: db.metrics()["engine.scan_sources"]
            for name, db in (("window", window), ("cursor", cursor), ("eager", eager))
        }
        assert opened["window"] == opened["cursor"]
        assert opened["eager"] > 5 * opened["window"]


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
