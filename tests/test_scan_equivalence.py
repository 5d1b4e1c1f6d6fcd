"""``DB.scan`` (lazy level cursors) against the eager all-sources oracle.

Two stores are built identically and driven through the same puts,
deletes and scans — one through ``DB.scan``, the other through
``tests/_scan_oracle.eager_scan`` (the pre-cursor implementation).  After
*every* scan they must agree on the results and on everything the scan
charged: the virtual clock, every registry counter (``USER_SCAN`` bytes,
requests and time, block-cache hits, misses and evictions, engine
counters) and the block cache's residency *in LRU order* — i.e. the lazy
scan changes which host objects are touched, never what is charged.

The only counter allowed to differ is ``engine.scan_sources``: the number
of file/slice sources a scan's merge opened, which is what the rewrite
reduces (second half of this file).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DB
from repro.errors import CorruptionError, EngineError
from repro.faults.plan import FaultPlan
from repro.lsm.config import LSMConfig
from repro.ssd.metrics import USER_SCAN

from ._scan_oracle import eager_scan

POLICIES = ("udc", "ldc", "tiered", "delayed")
#: 0 = no block cache; 1 KB = eight 128-byte blocks, so scans evict.
CACHE_BYTES = (0, 1024)

#: Stored keys are the even indices; odd indices are gap keys.
MAX_INDEX = 120


def tiny(cache_bytes: int) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=512,
        sstable_target_bytes=512,
        block_bytes=128,
        fan_out=3,
        level1_capacity_bytes=1024,
        max_levels=5,
        slicelink_threshold=3,
        block_cache_bytes=cache_bytes,
    )


def make_key(index: int) -> bytes:
    return str(index).zfill(6).encode()


def charged_state(db: DB) -> tuple:
    """Everything a scan may charge, as one comparable value."""
    counters = db.registry.counters()
    counters.pop("engine.scan_sources", None)
    cache = db.block_cache
    residency = list(cache._entries.items()) if cache is not None else None
    return db.clock.now(), counters, db.registry.gauges(), residency


class Pair:
    """A store read through ``DB.scan`` beside its eagerly-scanned twin."""

    def __init__(self, policy: str, config: LSMConfig, fault_plans=(None, None)):
        self.lazy = DB(config=config, policy=policy, fault_plan=fault_plans[0])
        self.eager = DB(config=config, policy=policy, fault_plan=fault_plans[1])

    def put(self, key: bytes, value: bytes) -> None:
        self.lazy.put(key, value)
        self.eager.put(key, value)

    def delete(self, key: bytes) -> None:
        self.lazy.delete(key)
        self.eager.delete(key)

    def scan(self, start_key: bytes, count: int):
        got = self.lazy.scan(start_key, count)
        assert got == eager_scan(self.eager, start_key, count)
        self.assert_same_charges()
        return got

    def assert_same_charges(self) -> None:
        assert charged_state(self.lazy) == charged_state(self.eager)

    def user_scan(self, field: str):
        return self.lazy.registry.counter(f"device.read.{USER_SCAN}.{field}")


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


@pytest.mark.parametrize("cache_bytes", CACHE_BYTES)
@pytest.mark.parametrize("policy", POLICIES)
class TestAgainstEagerOracle:
    @given(ops=operations)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_results_and_charges(self, policy, cache_bytes, ops):
        pair = Pair(policy, tiny(cache_bytes))
        model = {}
        # Start from a multi-level tree (with live links under LDC), so
        # even a short drawn sequence scans more than a memtable.
        rng = random.Random(5)
        for index in rng.choices(range(0, MAX_INDEX + 1, 2), k=150):
            model[make_key(index)] = b"seed-%03d" % index + b"s" * 25
            pair.put(make_key(index), model[make_key(index)])
        for kind, index, arg in ops:
            key = make_key(index)
            if kind == "put":
                pair.put(key, arg)
                model[key] = arg
            elif kind == "delete":
                pair.delete(key)
                model.pop(key, None)
            else:
                expected = sorted(item for item in model.items() if item[0] >= key)
                assert pair.scan(key, arg) == expected[:arg]
        pair.scan(b"0", 10_000)
        pair.lazy.check_invariants()

    def test_edge_cases_on_a_deep_tree(self, policy, cache_bytes):
        """Gap keys, the far end, oversized counts and tombstone runs."""
        pair = Pair(policy, tiny(cache_bytes))
        rng = random.Random(7)
        live = {}
        for _ in range(3):  # overwrites spread versions over the levels
            for index in rng.sample(range(0, 400, 2), 200):
                value = b"v%04d" % rng.randrange(10_000) + b"x" * 30
                pair.put(make_key(index), value)
                live[make_key(index)] = value
        # A run of deletes: keys 100..138 become tombstones above live data.
        for index in range(100, 140, 2):
            pair.delete(make_key(index))
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
            assert pair.scan(start, count) == expect(start, count), (start, count)
        assert pair.user_scan("bytes") > 0
        assert pair.user_scan("ops") > 0
        pair.lazy.check_invariants()


@pytest.mark.parametrize("cache_bytes", CACHE_BYTES)
@pytest.mark.parametrize("policy", ("udc", "ldc"))
class TestVerifiedReads:
    """The CRC-verifying variant of the charge loop (fault-injecting device)."""

    def load(self, pair: Pair) -> None:
        rng = random.Random(11)
        for _ in range(2):
            for index in rng.sample(range(300), 200):
                pair.put(make_key(index), b"payload-%04d" % index + b"y" * 24)

    def test_clean_device_charges_identically(self, policy, cache_bytes):
        pair = Pair(policy, tiny(cache_bytes), (FaultPlan(), FaultPlan()))
        self.load(pair)
        for start in (0, 37, 150, 299, 500):
            pair.scan(make_key(start), 25)
            pair.scan(make_key(start), 25)  # again, over a warm cache

    def test_corrupt_run_is_detected_and_never_cached(self, policy, cache_bytes):
        pair = Pair(policy, tiny(cache_bytes), (FaultPlan(), FaultPlan()))
        self.load(pair)
        for db in (pair.lazy, pair.eager):
            # The second device read of the next scan delivers flipped bits.
            db.device.faults.plan.corrupt_read(db.device.faults.read_count + 2)
        with pytest.raises(CorruptionError):
            pair.lazy.scan(make_key(40), 60)
        with pytest.raises(CorruptionError):
            eager_scan(pair.eager, make_key(40), 60)
        pair.assert_same_charges()
        # The store stays readable, and still agrees, after the fault.
        assert len(pair.scan(make_key(40), 60)) == 60


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


def scan_recording_charges(db: DB, start_key: bytes, count: int):
    """Scan once; return (sources opened, files charged, slice sources charged)."""
    charged = []
    original = db._charge_range_read

    def recording(table, lo, hi):
        charged.append(table)
        original(table, lo, hi)

    db._charge_range_read = recording
    before = db.engine_stats.scan_sources
    try:
        assert len(db.scan(start_key, count)) == count
    finally:
        del db._charge_range_read
    files = [table for table in charged if not table.frozen]
    frozen = [table for table in charged if table.frozen]
    return db.engine_stats.scan_sources - before, files, frozen


class TestSourcesOpened:
    STARTS = [str(index).zfill(16).encode() for index in range(0, 9_800, 490)]

    def test_udc_scan_opens_a_handful_of_a_150_file_tree(self):
        db = paper_shaped_store("udc")
        version = db.version
        assert version.num_files() >= 150
        sorted_levels = sum(
            1 for level in range(1, version.num_levels) if version.files(level)
        )
        for start in self.STARTS:
            bound = 1 + version.num_files(0) + 2 * sorted_levels + 2
            sources, files, frozen = scan_recording_charges(db, start, 100)
            assert sources == len(files) and not frozen
            assert sources <= bound, (start, sources, bound)

    def test_ldc_excess_is_the_links_of_the_touched_files(self):
        """The read-side cost of linking (§III-B.3), readable per scan."""
        db = paper_shaped_store("ldc")
        linked_scans = 0
        for start in self.STARTS:
            sources, files, frozen = scan_recording_charges(db, start, 100)
            links = sum(len(table.slice_links) for table in files)
            assert sources - len(files) == links == len(frozen)
            linked_scans += bool(links)
        assert linked_scans, "no scan touched a linked file; the test is vacuous"

    def test_eager_oracle_opened_an_order_of_magnitude_more(self):
        lazy, eager = paper_shaped_store("ldc"), paper_shaped_store("ldc")
        for start in self.STARTS:
            assert lazy.scan(start, 100) == eager_scan(eager, start, 100)
        assert (
            eager.engine_stats.scan_sources > 5 * lazy.engine_stats.scan_sources
        )


class TestResponsibilityInvariant:
    """What the cursor relies on is checked, not assumed."""

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
