"""Unit and integration tests for the LRU block cache."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import DB, get_spec
from repro.errors import ConfigError, EngineError
from repro.lsm.cache import BlockCache
from repro.lsm.config import LSMConfig
from repro.obs.snapshot import MetricsSnapshot

from tests.conftest import key_of

from . import _scan_oracle as scan_oracle

#: LDC with T_s held at 10 over the fan-out-4 configs below.
LDC_TS10 = get_spec("ldc").derive(threshold=10)


def tally(cache: BlockCache, name: str) -> int:
    """The cache's ``cache.<name>`` counter (0 before its first bump)."""
    return cache.registry.counter(f"cache.{name}")


class TestBlockCacheUnit:
    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            BlockCache(0)

    def test_miss_then_hit(self):
        cache = BlockCache(1024)
        assert not cache.lookup(1, 0)
        cache.insert(1, 0, 100)
        assert cache.lookup(1, 0)
        assert tally(cache, "hits") == 1 and tally(cache, "misses") == 1

    def test_lru_eviction_order(self):
        cache = BlockCache(300)
        cache.insert(1, 0, 100)
        cache.insert(1, 1, 100)
        cache.insert(1, 2, 100)
        cache.lookup(1, 0)  # refresh block 0
        cache.insert(1, 3, 100)  # evicts block 1 (LRU)
        assert cache.lookup(1, 0)
        assert not cache.lookup(1, 1)
        assert cache.lookup(1, 2)
        assert cache.lookup(1, 3)

    def test_capacity_respected(self):
        cache = BlockCache(500)
        for index in range(50):
            cache.insert(1, index, 100)
        assert cache.used_bytes <= 500
        assert len(cache) <= 5

    def test_oversized_block_not_cached(self):
        cache = BlockCache(100)
        cache.insert(1, 0, 1000)
        assert len(cache) == 0
        assert not cache.lookup(1, 0)

    def test_reinsert_updates_size(self):
        cache = BlockCache(1000)
        cache.insert(1, 0, 100)
        cache.insert(1, 0, 300)
        assert cache.used_bytes == 300
        assert len(cache) == 1

    def test_files_do_not_collide(self):
        cache = BlockCache(1000)
        cache.insert(1, 0, 100)
        assert not cache.lookup(2, 0)

    def test_hit_ratio(self):
        cache = BlockCache(1000)
        assert MetricsSnapshot.capture(cache.registry, 0.0).cache_hit_ratio == 0.0
        cache.insert(1, 0, 10)
        cache.lookup(1, 0)
        cache.lookup(1, 1)
        # one miss from the failed lookup above plus the hit
        assert 0.0 < MetricsSnapshot.capture(cache.registry, 0.0).cache_hit_ratio < 1.0

    def test_evict_file_frees_all_its_blocks(self):
        cache = BlockCache(10_000)
        cache.insert(1, 0, 100)
        cache.insert(1, 1, 100)
        cache.insert(2, 0, 100)
        freed = cache.evict_file(1, 2)
        assert freed == 200
        assert cache.used_bytes == 100
        assert len(cache) == 1
        assert not cache.lookup(1, 0)
        assert cache.lookup(2, 0)

    def test_evict_unknown_file_is_noop(self):
        cache = BlockCache(1000)
        cache.insert(1, 0, 100)
        assert cache.evict_file(99, 4) == 0
        assert cache.used_bytes == 100

    def test_evict_does_not_count_as_miss(self):
        cache = BlockCache(1000)
        cache.insert(1, 0, 100)
        hits, misses = tally(cache, "hits"), tally(cache, "misses")
        cache.evict_file(1, 1)
        assert (tally(cache, "hits"), tally(cache, "misses")) == (hits, misses)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 10), st.integers(1, 200)),
            max_size=200,
        )
    )
    @settings(max_examples=30)
    def test_capacity_invariant_property(self, inserts):
        cache = BlockCache(512)
        for file_id, block, nbytes in inserts:
            cache.insert(file_id, block, nbytes)
            assert cache.used_bytes <= 512

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.integers(0, 4),
                    st.integers(0, 8),
                    st.integers(1, 200),
                ),
                st.tuples(st.just("evict"), st.integers(0, 4)),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=30)
    def test_evict_keeps_accounting_consistent(self, actions):
        cache = BlockCache(2048)
        for action in actions:
            if action[0] == "insert":
                _, file_id, block, nbytes = action
                cache.insert(file_id, block, nbytes)
            else:
                cache.evict_file(action[1], 9)  # blocks are drawn from 0..8
            assert cache.used_bytes == sum(cache._entries.values())
            assert cache.used_bytes <= 2048


class TestCacheInEngine:
    def _config(self, cache_bytes):
        return LSMConfig(
            memtable_bytes=2048,
            sstable_target_bytes=2048,
            block_bytes=512,
            fan_out=4,
            level1_capacity_bytes=4096,
            block_cache_bytes=cache_bytes,
        )

    def test_disabled_by_default(self, udc_db):
        assert udc_db.block_cache is None

    def test_enabled_via_config(self):
        db = DB(config=self._config(8192), policy="udc")
        assert db.block_cache is not None

    def test_repeated_reads_hit_cache(self):
        db = DB(config=self._config(64 * 1024), policy="udc")
        for index in range(1000):
            db.put(key_of(index), b"v" * 40)
        db.flush()
        for _ in range(50):
            db.get(key_of(7))
        assert tally(db.block_cache, "hits") > 0

    def test_cached_reads_cost_less_device_time(self):
        timings = {}
        reads = {}
        for cache_bytes in (0, 64 * 1024):
            db = DB(config=self._config(cache_bytes), policy="udc")
            for index in range(1500):
                db.put(key_of(index), b"v" * 40)
            db.policy.maybe_compact()
            start = db.clock.now()
            for _ in range(400):
                db.get(key_of(3))  # maximally hot key
            timings[cache_bytes] = db.clock.now() - start
            reads[cache_bytes] = db.metrics().get("engine.sstable_blocks_read")
        assert timings[64 * 1024] < timings[0]
        assert reads[64 * 1024] < reads[0]

    def test_correctness_unchanged_with_cache(self):
        """The cache only changes cost, never results."""
        rng = random.Random(9)
        operations = [
            (key_of(rng.randrange(400)), b"v%d" % index) for index in range(3000)
        ]
        contents = []
        for cache_bytes in (0, 32 * 1024):
            db = DB(config=self._config(cache_bytes), policy=LDC_TS10)
            model = {}
            for key, value in operations:
                db.put(key, value)
                model[key] = value
            assert dict(db.logical_items()) == model
            for key in list(model)[:150]:
                assert db.get(key) == model[key]
            assert db.scan(key_of(0), 50) == sorted(model.items())[:50]
            contents.append(dict(db.logical_items()))
        assert contents[0] == contents[1]

    def test_cache_never_holds_dead_file_blocks(self):
        """Compacted-away files release their cache blocks immediately."""
        db = DB(config=self._config(128 * 1024), policy="udc")
        for index in range(4000):
            db.put(key_of(index % 500), b"v" * 40)
            if index % 50 == 0:
                db.get(key_of(index % 500))
        db.policy.maybe_compact()
        live = {
            table.file_id
            for level in range(db.version.num_levels)
            for table in db.version.files(level)
        }
        cached = {file_id for file_id, _ in db.block_cache._entries}
        assert cached <= live

    def test_ldc_frozen_files_stay_cached_until_recycled(self):
        """LDC-linked files stay readable via slices, so their blocks stay;
        only full recycling (refcount zero) drops them."""
        db = DB(config=self._config(128 * 1024), policy=LDC_TS10)
        for index in range(4000):
            db.put(key_of(index % 500), b"v" * 40)
            if index % 50 == 0:
                db.get(key_of(index % 500))
        db.policy.maybe_compact()
        live = {
            table.file_id
            for level in range(db.version.num_levels)
            for table in db.version.files(level)
        }
        frozen = {table.file_id for table in db.policy.movement.frozen.files()}
        cached = {file_id for file_id, _ in db.block_cache._entries}
        assert cached <= live | frozen

    def test_invariants_reject_blocks_evict_file_cannot_reach(self):
        """``evict_file`` pops blocks ``0 .. num_blocks - 1`` only, so a
        resident key past a live file's block count would outlive it."""
        db = DB(config=self._config(128 * 1024), policy=LDC_TS10)
        for index in range(3000):
            db.put(key_of(index % 500), b"v" * 40)
        for index in range(0, 500, 5):
            db.get(key_of(index))
        db.check_invariants()
        assert len(db.block_cache) > 0
        table = next(iter(db.version.all_tables()))
        db.block_cache.insert(table.file_id, table.num_blocks, 64)
        with pytest.raises(EngineError, match=f"block {table.num_blocks} of file"):
            db.check_invariants()
        db.block_cache.evict_file(table.file_id, table.num_blocks + 1)
        db.block_cache.insert(10**9, 0, 64)
        with pytest.raises(EngineError, match="dead files"):
            db.check_invariants()

    def test_scan_uses_cache(self):
        db = DB(config=self._config(128 * 1024), policy="udc")
        for index in range(2000):
            db.put(key_of(index), b"v" * 40)
        db.policy.maybe_compact()
        db.scan(key_of(100), 50)
        first_misses = tally(db.block_cache, "misses")
        db.scan(key_of(100), 50)
        # Second identical scan should add hits, not misses.
        assert tally(db.block_cache, "misses") == first_misses
        assert tally(db.block_cache, "hits") > 0


class TestEvictionCounters:
    """``cache.evictions`` / ``cache.evicted_bytes``: lazy, LRU-only."""

    def test_counters_absent_until_first_eviction(self):
        cache = BlockCache(300)
        cache.insert(1, 0, 100)
        cache.insert(1, 1, 100)
        cache.lookup(1, 0)
        # No capacity pressure yet: the keys must not exist (the batched
        # fingerprint suite hashes every registry counter).
        assert "cache.evictions" not in cache.registry.counters()
        assert "cache.evicted_bytes" not in cache.registry.counters()
        assert tally(cache, "evictions") == 0 and tally(cache, "evicted_bytes") == 0

    def test_lru_eviction_counted(self):
        cache = BlockCache(300)
        cache.insert(1, 0, 100)
        cache.insert(1, 1, 100)
        cache.insert(1, 2, 250)  # 450 used: evicts (1,0) then (1,1)
        assert tally(cache, "evictions") == 2
        assert tally(cache, "evicted_bytes") == 200
        assert "cache.evictions" in cache.registry.counters()

    def test_evict_file_not_counted(self):
        cache = BlockCache(1024)
        cache.insert(1, 0, 100)
        cache.insert(2, 0, 100)
        cache.evict_file(1, 1)
        assert "cache.evictions" not in cache.registry.counters()
        assert tally(cache, "evictions") == 0

    def test_counters_reset_with_registry(self):
        cache = BlockCache(150)
        cache.insert(1, 0, 100)
        cache.insert(1, 1, 100)  # evicts (1,0)
        assert tally(cache, "evictions") == 1
        cache.registry.reset()
        assert tally(cache, "evictions") == 0 and tally(cache, "evicted_bytes") == 0


class RunFailed(Exception):
    """A ``read_run`` callback's stand-in for a CRC failure."""


class TestFetch:
    """A range read's one call: ``fetch_range`` probes each block, installs
    each miss at once and reads each run of misses through a callback.

    It counts nothing itself — its outcomes go into the caller's ``[hits,
    misses, evictions, evicted_bytes]`` tally, which ``count_probes``
    flushes once per scan.
    """

    @staticmethod
    def fetch(cache, file_id, first, end, sizes, tally=None):
        """``(hits returned, runs read)``; runs as ``(first, end, nbytes, hits)``."""
        runs = []
        hits = cache.fetch_range(
            file_id, first, end, sizes, lambda *run: runs.append(run),
            tally if tally is not None else [0, 0, 0, 0],
        )
        return hits, runs

    def test_hit_refreshes_recency_and_installs_nothing(self):
        cache = BlockCache(300)
        cache.insert(1, 0, 100)
        cache.insert(1, 1, 100)
        tally = [0, 0, 0, 0]
        assert self.fetch(cache, 1, 0, 1, [100, 100], tally) == (1, [])
        assert cache.cached_blocks() == [(1, 1), (1, 0)]  # (1, 0) is now newest
        assert (cache.used_bytes, tally) == (200, [1, 0, 0, 0])
        assert cache.registry.counters() == {}

    def test_miss_installs_and_can_evict_the_lru_block(self):
        cache = BlockCache(300)
        cache.insert(1, 0, 100)
        cache.insert(1, 1, 100)
        sizes = [100, 100, 250]
        tally = [0, 0, 0, 0]
        assert self.fetch(cache, 1, 2, 3, sizes, tally) == (0, [(2, 3, 250, 0)])
        assert cache.cached_blocks() == [(1, 2)]
        assert (cache.used_bytes, tally) == (250, [0, 1, 2, 200])
        assert self.fetch(cache, 1, 2, 3, sizes) == (1, [])

    def test_oversize_block_is_a_miss_that_is_never_resident(self):
        cache = BlockCache(100)
        cache.insert(1, 0, 60)
        tally = [0, 0, 0, 0]
        for _ in range(2):
            assert self.fetch(cache, 1, 1, 2, [60, 101], tally) == (0, [(1, 2, 101, 0)])
        assert cache.cached_blocks() == [(1, 0)]
        assert (cache.used_bytes, tally) == (60, [0, 2, 0, 0])

    def test_hits_are_handed_over_between_runs_in_block_order(self):
        """Miss, miss, hit, hit, miss, hit: the closing hit of a run is
        charged after that run, the hits before it with it."""
        cache = BlockCache(1000)
        for block in (2, 3, 5):
            cache.insert(1, block, 10)
        tally = [0, 0, 0, 0]
        hits, runs = self.fetch(cache, 1, 0, 6, [10] * 6, tally)
        assert runs == [(0, 2, 20, 0), (4, 5, 10, 2)]
        assert hits == 1 and tally == [3, 3, 0, 0]

    def test_eviction_counters_are_created_on_the_first_eviction_only(self):
        cache = BlockCache(300)
        sizes = [100, 100, 150]
        counts = [0, 0, 0, 0]
        self.fetch(cache, 1, 0, 2, sizes, counts)
        self.fetch(cache, 1, 0, 1, sizes, counts)
        cache.count_probes(*counts)
        assert cache.registry.counters() == {"cache.hits": 1, "cache.misses": 2}
        counts = [0, 0, 0, 0]
        self.fetch(cache, 1, 2, 3, sizes, counts)
        cache.count_probes(*counts)
        assert cache.registry.counters() == {
            "cache.hits": 1,
            "cache.misses": 3,
            "cache.evictions": 1,
            "cache.evicted_bytes": 100,
        }
        cache.count_probes(0, 0)  # zeros create nothing and add nothing
        assert (tally(cache, "evictions"), tally(cache, "evicted_bytes")) == (1, 100)

    @given(
        st.integers(100, 600),
        st.lists(
            st.tuples(
                st.integers(1, 3),  # file
                st.integers(0, 5),  # first block
                st.integers(0, 6),  # blocks in the range
                st.one_of(st.none(), st.integers(0, 2)),  # the run that raises
            ),
            max_size=30,
        ),
        st.lists(st.integers(1, 120), min_size=11, max_size=11),
        st.integers(1, 4),
    )
    @settings(max_examples=150)
    def test_same_state_and_counters_as_probe_plus_insert(
        self, capacity, ranges, sizes, ranges_per_scan
    ):
        """Any ranges, some failing mid-range, each tallied per scan of
        ``ranges_per_scan`` ranges: the same LRU order, bytes, counters
        and clock order of hits and reads as the per-block ``fetch`` it
        replaced (``tests/_scan_oracle.py``) and as ``probe`` + ``insert``."""
        caches = [BlockCache(capacity) for _ in range(3)]
        ranged, per_block, two_step = caches
        for at in range(0, len(ranges), ranges_per_scan):
            tallies = [[0, 0, 0, 0] for _ in caches]
            for file_id, first, length, fail_run in ranges[at:at + ranges_per_scan]:
                end = first + length
                logs = [range_read(cache, step, file_id, first, end, sizes, fail_run, tally)
                        for cache, step, tally in zip(
                            caches, (None, scan_oracle.fetch, probe_then_insert), tallies)]
                assert logs[0] == logs[1] == logs[2]
                assert ranged.cached_blocks() == per_block.cached_blocks()
                assert ranged.cached_blocks() == two_step.cached_blocks()
                assert ranged.used_bytes == per_block.used_bytes == two_step.used_bytes
            for cache, counts in zip(caches, tallies):
                cache.count_probes(*counts)
            assert ranged.registry.counters() == per_block.registry.counters()
            assert ranged.registry.counters() == two_step.registry.counters()

    def test_range_that_raises_still_flushes_its_tally(self, monkeypatch):
        """The engine's ``finally``: a run failing its CRC mid-range loses no count."""
        from repro.errors import CorruptionError
        from repro.faults.plan import FaultPlan

        config = LSMConfig(
            memtable_bytes=512, sstable_target_bytes=512, block_bytes=128,
            block_cache_bytes=1024,
        )
        db = DB(config=config, policy="udc", fault_plan=FaultPlan())
        for index in range(200):
            db.put(key_of(index), b"v" * 40)
        db.scan(key_of(0), 30)
        cache = db.block_cache
        fetch_range, steps = cache.fetch_range, []

        def recording(file_id, first, end, sizes, read_run, tally):
            was = list(tally)
            try:
                return fetch_range(file_id, first, end, sizes, read_run, tally)
            finally:
                steps.append([now - then for now, then in zip(tally, was)])

        monkeypatch.setattr(cache, "fetch_range", recording)
        before = db.registry.counters()
        faults = db.device.faults
        faults.corrupt_read(faults.read_count + 3)
        with pytest.raises(CorruptionError):
            db.scan(key_of(50), 100)
        after = db.registry.counters()

        def counted(key: str) -> int:
            return after.get(key, 0) - before.get(key, 0)

        assert counted("cache.hits") == sum(hits for hits, _, _, _ in steps)
        assert counted("cache.misses") == sum(misses for _, misses, _, _ in steps) > 0
        assert counted("cache.evictions") == sum(blocks for _, _, blocks, _ in steps) > 0
        assert counted("cache.evicted_bytes") == sum(freed for _, _, _, freed in steps)


def probe_then_insert(cache, file_id, block, nbytes, evicted) -> bool:
    """A per-block step out of ``probe`` and ``insert`` (which counts its own
    evictions, so ``evicted`` stays empty)."""
    if cache.probe(file_id, block):
        return True
    cache.insert(file_id, block, nbytes)
    return False


def range_read(cache, step, file_id, first, end, sizes, fail_run, tally) -> list:
    """Read a range, the run numbered ``fail_run`` raising; returns the
    charge log: ``"hit"`` per hit charged, ``(first, end, nbytes)`` per run.

    ``step=None`` is ``fetch_range``; otherwise the per-block loop of the
    parent ``DB._charge_range_read`` around ``step``.
    """
    log = []

    def read(run_first, run_end, nbytes):
        if sum(1 for entry in log if entry != "hit") == fail_run:
            raise RunFailed
        log.append((run_first, run_end, nbytes))

    try:
        if step is None:
            def read_run(run_first, run_end, nbytes, hits):
                log.extend(["hit"] * hits)
                read(run_first, run_end, nbytes)

            log.extend(["hit"] * cache.fetch_range(file_id, first, end, sizes, read_run, tally))
            return log
        evicted = [0, 0]
        hits = misses = run_bytes = run_start = 0
        try:
            for block in range(first, end):
                if step(cache, file_id, block, sizes[block], evicted):
                    if run_bytes:
                        read(run_start, block, run_bytes)
                        run_bytes = 0
                    hits += 1
                    log.append("hit")
                else:
                    if not run_bytes:
                        run_start = block
                    misses += 1
                    run_bytes += sizes[block]
            if run_bytes:
                read(run_start, end, run_bytes)
        finally:
            for index, count in enumerate((hits, misses, *evicted)):
                tally[index] += count
    except RunFailed:
        log.append("raised")
    return log
