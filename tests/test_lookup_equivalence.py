"""``DB.get`` (per-lookup costs) against the per-probe oracle.

Two stores are built identically and driven through the same puts,
deletes and gets — one through ``DB.get``, the other
through ``tests/_lookup_oracle.oracle_get`` (the pre-rework routines).
After *every* get they must agree on the value and on everything the
lookup touched: the virtual clock, every registry counter (same key set,
same values), the block cache's residency *in LRU order* and the emitted
trace events — i.e. the rework
changes which host calls deliver a charge, never what is charged.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DB, DeviceConfig, FlashSpec, RingBufferSink, Tracer
from repro.errors import CorruptionError, EngineError
from repro.faults.plan import FaultPlan
from repro.lsm.bloom import BloomFilter
from repro.lsm.config import LSMConfig
from repro.lsm.record import KIND_DELETE

from ._lookup_oracle import oracle_get

POLICIES = ("udc", "ldc", "tiered", "delayed")
#: 0 = no block cache; 4 KB = thirty-two 128-byte blocks, so gets evict;
#: 1 MB holds the whole store.
CACHE_BYTES = (0, 4096, 1 << 20)
#: plain = the fused user-read charge; flash = FTL + one background thread,
#: so block reads arbitrate for the device channel; faulty = CRC-verified
#: reads through a (clean) fault-injecting device.
DEVICES = ("plain", "flash", "faulty")

#: Stored keys are the even indices; odd indices are gap keys.
MAX_INDEX = 120

#: Answers "maybe" to every probe: forces the block read behind a filter.
ALWAYS_MAYBE = BloomFilter((), 0)


def tiny(cache_bytes: int, device: str = "plain") -> LSMConfig:
    return LSMConfig(
        memtable_bytes=512,
        sstable_target_bytes=512,
        block_bytes=128,
        fan_out=3,
        level1_capacity_bytes=1024,
        max_levels=5,
        block_cache_bytes=cache_bytes,
        bg_threads=1 if device == "flash" else 0,
    )


def make_key(index: int) -> bytes:
    return str(index).zfill(6).encode()


def build(policy, cache_bytes: int, device: str, traced: bool) -> DB:
    profile = {}
    if device == "flash":
        profile["profile"] = DeviceConfig(
            flash=FlashSpec(
                page_bytes=512, pages_per_block=16, logical_bytes=256 * 1024
            )
        )
    return DB(
        config=tiny(cache_bytes, device),
        policy=policy,
        tracer=Tracer([RingBufferSink()]) if traced else None,
        fault_plan=FaultPlan() if device == "faulty" else None,
        **profile,
    )


def all_files(db: DB):
    for table in db.version.all_tables():
        yield table
        for piece in table.slice_links:
            yield piece.source


def observable_state(db: DB) -> tuple:
    """Everything a get may touch, as one comparable value."""
    cache = db.block_cache
    residency = list(cache._entries.items()) if cache is not None else None
    events = [
        (event.kind, event.t_us, event.fields)
        for sink in db.tracer._sinks
        for event in sink.events
    ]
    return (
        db.clock.now(),
        db.registry.counters(),
        db.registry.gauges(),
        residency,
        events,
    )


class Pair:
    """A store read through ``DB.get`` beside its oracle-read twin."""

    def __init__(self, policy, cache_bytes=0, device="plain", traced=False):
        self.new = build(policy, cache_bytes, device, traced)
        self.old = build(policy, cache_bytes, device, traced)

    def both(self):
        return (self.new, self.old)

    def put(self, key: bytes, value: bytes) -> None:
        for db in self.both():
            db.put(key, value)

    def delete(self, key: bytes) -> None:
        for db in self.both():
            db.delete(key)

    def load(self, seed: int, puts: int, rounds: int = 1) -> dict:
        """Random overwrites of the even keys: a multi-level tree."""
        rng = random.Random(seed)
        model = {}
        for _ in range(rounds):
            for index in rng.choices(range(0, MAX_INDEX + 1, 2), k=puts):
                model[make_key(index)] = b"seed-%03d" % index + b"s" * 25
                self.put(make_key(index), model[make_key(index)])
        return model

    def get(self, key: bytes):
        got = self.new.get(key)
        assert got == oracle_get(self.old, key)
        self.assert_same_state()
        return got

    def assert_same_state(self) -> None:
        assert observable_state(self.new) == observable_state(self.old)


stored_indices = st.integers(0, MAX_INDEX // 2).map(lambda index: 2 * index)
#: Stored keys, gap keys and keys past the last one.
any_indices = st.integers(0, MAX_INDEX + 4)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), stored_indices, st.binary(min_size=1, max_size=40)),
        st.tuples(st.just("delete"), stored_indices, st.none()),
        st.tuples(st.just("get"), any_indices, st.none()),
        st.tuples(st.just("get"), any_indices, st.none()),
    ),
    max_size=80,
)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("cache_bytes", CACHE_BYTES)
@pytest.mark.parametrize("policy", POLICIES)
class TestAgainstPerProbeOracle:
    @given(ops=operations, traced=st.booleans())
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_values_and_charges(self, policy, cache_bytes, device, ops, traced):
        pair = Pair(policy, cache_bytes, device, traced)
        # Start from a multi-level tree (with live links under LDC), so
        # even a short drawn sequence probes more than a memtable.
        model = pair.load(seed=5, puts=150)
        for kind, index, arg in ops:
            key = make_key(index)
            if kind == "put":
                pair.put(key, arg)
                model[key] = arg
            elif kind == "delete":
                pair.delete(key)
                model.pop(key, None)
            else:
                assert pair.get(key) == model.get(key)
        for index in range(0, MAX_INDEX + 5, 7):
            assert pair.get(make_key(index)) == model.get(make_key(index))
        pair.new.check_invariants()


def deep_pair(policy, cache_bytes: int = 4096, device: str = "plain",
              traced: bool = True) -> tuple:
    """A pair three overwrite rounds deep, drained to disk, and its model."""
    pair = Pair(policy, cache_bytes, device, traced)
    model = pair.load(seed=7, puts=120, rounds=3)
    for db in pair.both():
        db.flush()
    return pair, model


def linked_files(db: DB):
    """``(level, position, table)`` of every file carrying slice links."""
    return [
        (level, position, table)
        for level in range(1, db.version.num_levels)
        for position, table in enumerate(db.version.files(level))
        if table.slice_links
    ]


@pytest.mark.parametrize("policy", POLICIES)
class TestDirectedKeys:
    def test_absent_gap_and_far_keys(self, policy):
        pair, model = deep_pair(policy)
        last = max(model)
        cases = [
            make_key(51),  # absent, between two stored keys
            make_key(1),  # absent, left of most files
            last,  # the last stored key
            last + b"\x00",  # just past it: beyond the last file of a level
            make_key(10_000),  # far past it
            b"\x00",  # before every file
        ]
        for key in cases + cases:  # again, over a warm cache
            assert pair.get(key) == model.get(key), key

    def test_tombstones_shadow_older_versions(self, policy):
        pair, model = deep_pair(policy)
        doomed = sorted(model)[10:30]
        for key in doomed:
            pair.delete(key)
            del model[key]
        for key in doomed:  # tombstones still in the memtable / Level 0
            assert pair.get(key) is None
        for db in pair.both():
            db.flush()
        # Push the tombstones down the tree; some doomed keys come back.
        model.update(pair.load(seed=9, puts=60))
        assert any(key not in model for key in doomed)
        for key in doomed:
            assert pair.get(key) == model.get(key)


class TestDirectedSlices:
    """LDC-only shapes: what a lookup does with linked slices."""

    def test_responsibility_gap_keys_reach_only_the_slices(self):
        pair, model = deep_pair("ldc")
        gaps = 0
        for level, position, table in linked_files(pair.new):
            files = pair.new.version.files(level)
            if position == 0:
                continue
            # Odd (never stored) and even keys strictly between the
            # previous file's max and this file's min: routed here by
            # responsibility, outside the file's own range.
            lower = int(files[position - 1].max_key)
            upper = int(table.min_key)
            for index in range(lower + 1, upper):
                gaps += 1
                assert pair.get(make_key(index)) == model.get(make_key(index))
        assert gaps, "no responsibility gap in the tree; the test is vacuous"

    def test_slice_wider_than_its_source_charges_nothing(self):
        """A slice covers the key, its source's own range does not.

        Reachable on a Bloom false positive (forced here): the lookup has
        no block to read in the source, so it must charge nothing for it.
        """
        pair, model = deep_pair("ldc", cache_bytes=0)
        found = [
            (piece.source, make_key(index))
            for _level, _position, table in linked_files(pair.new)
            for piece in table.slice_links
            for index in range(MAX_INDEX + 4)
            if piece.covers_key(make_key(index))
            and not piece.source.covers_key(make_key(index))
        ]
        assert found, "no slice wider than its source; the test is vacuous"
        for db in pair.both():
            for table in all_files(db):
                if table.frozen:
                    table._bloom = ALWAYS_MAYBE
        before = observable_state(pair.new)
        for source, key in found:
            tally = [0, 0, 0]
            assert pair.new._read_block(source, key, tally) is None
            assert tally == [0, 0, 0]
        assert observable_state(pair.new) == before
        for _source, key in found:
            assert pair.get(key) == model.get(key)

    def test_key_outside_a_slice_span_costs_no_probe(self, monkeypatch):
        """A key in a slice's responsibility range ``[lo, hi)`` but outside
        its key span ``[min_key, max_key]`` is not in the slice: the get
        charges neither the slice's filter check nor a block read of its
        source, as for a file whose range misses the key."""
        pair, model = deep_pair("ldc", cache_bytes=0)
        db = pair.new
        outside = [
            (piece.source, key)
            for _level, _position, table in linked_files(db)
            for piece in table.slice_links
            for key in map(make_key, range(MAX_INDEX + 5))
            if piece.covers_key(key)
            and not piece.records()[0].key <= key <= piece.records()[-1].key
        ]
        assert outside, "no key outside a slice's span; the test is vacuous"
        probed, read = [], []
        for source in {source for source, _key in outside}:
            source._bloom = ProbeLog(source.bloom, source, probed)
        read_block = db._read_block

        def reading(table, key, tally):
            read.append(table)
            return read_block(table, key, tally)

        monkeypatch.setattr(db, "_read_block", reading)
        for source, key in outside:
            probed.clear()
            read.clear()
            assert pair.get(key) == model.get(key)
            assert source not in probed and source not in read, key

    def test_slice_hit_shadows_its_carrier_table(self):
        pair, model = deep_pair("ldc")
        shadowed = 0
        for _level, _position, table in linked_files(pair.new):
            for piece in table.slice_links:
                for record in piece.records():
                    if table.get(record.key) is not None:
                        shadowed += 1
                        assert pair.get(record.key) == model.get(record.key)
        assert shadowed, "no slice record shadows its carrier; vacuous"

    def test_get_stops_at_the_newest_slice_that_holds_the_key(self):
        """A key two slices of one carrier hold costs one block read.

        Churn (puts and deletes) after the deep load until such keys
        exist and one's newest slice holds a tombstone.  Only keys the
        newest slice answers count: nothing above or in the memtable
        holds a newer version.
        """
        pair, model = deep_pair("ldc", cache_bytes=0)
        db = pair.new
        rng = random.Random(3)
        held = {}
        for step in range(600):
            key = make_key(rng.randrange(0, MAX_INDEX + 1, 2))
            if rng.random() < 0.2:
                pair.delete(key)
                model.pop(key, None)
            else:
                model[key] = b"churn-%03d" % step
                pair.put(key, model[key])
            held = slice_answered_keys(db)
            if any(record.kind == KIND_DELETE for record in held.values()):
                break
        assert held, "no key held by two slices of one carrier; vacuous"
        assert any(record.kind == KIND_DELETE for record in held.values()), (
            "no newest slice holds a tombstone; vacuous"
        )
        for key in held:
            before = db.metrics().get("engine.sstable_blocks_read", 0)
            assert pair.get(key) == model.get(key)
            assert db.metrics().get("engine.sstable_blocks_read", 0) == before + 1


class ProbeLog:
    """A file's filter that logs the file on every probe, then answers."""

    def __init__(self, bloom: BloomFilter, table, log: list) -> None:
        self.bloom = bloom
        self.table = table
        self.log = log

    def may_contain(self, key: bytes, hashes=None) -> bool:
        self.log.append(self.table)
        return self.bloom.may_contain(key, hashes)


def slice_answered_keys(db: DB) -> dict:
    """Keys two or more slices of one carrier hold, mapped to the newest
    slice's record, where that record is the newest version stored."""
    newest = {}
    for record in db._memtable:
        newest[record.key] = record.seq
    for table in all_files(db):
        for record in table.records:
            newest[record.key] = max(record.seq, newest.get(record.key, -1))
    held = {}
    for _level, _position, table in linked_files(db):
        first = {}
        holders = {}
        for piece in table.links_newest_first():
            for record in piece.records():
                first.setdefault(record.key, record)
                holders[record.key] = holders.get(record.key, 0) + 1
        for key, record in first.items():
            if holders[key] >= 2 and record.seq == newest[key]:
                held[key] = record
    return held


@pytest.mark.parametrize("cache_bytes", (0, 4096))
@pytest.mark.parametrize("policy", ("udc", "ldc"))
class TestDirectedCorruption:
    def test_corrupt_block_is_detected_and_never_cached(self, policy, cache_bytes):
        pair, model = deep_pair(policy, cache_bytes, device="faulty")
        key = sorted(model)[len(model) // 2]
        for db in pair.both():
            # The next device read delivers flipped bits.
            db.device.faults.corrupt_read(db.device.faults.read_count + 1)
        residency = observable_state(pair.new)[3]
        with pytest.raises(CorruptionError) as new_error:
            pair.new.get(key)
        with pytest.raises(CorruptionError) as old_error:
            oracle_get(pair.old, key)
        assert str(new_error.value) == str(old_error.value)
        pair.assert_same_state()
        assert pair.new.registry.counter("faults.corruptions_detected") == 1
        assert observable_state(pair.new)[3] == residency  # nothing installed
        # The store stays readable, and still agrees, after the fault.
        assert pair.get(key) == model[key]


class TestCaptureGuard:
    def test_get_inside_a_clock_capture_is_a_typed_error(self):
        db = DB(config=tiny(0), policy="ldc")
        db.put(b"k", b"v")
        db.clock.begin_capture()
        try:
            with pytest.raises(EngineError, match="clock capture"):
                db.get(b"k")
        finally:
            db.clock.end_capture()
        assert db.get(b"k") == b"v"
