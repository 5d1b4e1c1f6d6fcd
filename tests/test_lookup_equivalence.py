"""Directed point lookups: absent, far and deleted keys, what ``DB.get``
does with linked slices and corrupt blocks, and where it refuses to run.

The file keeps the name it had when these cases also ran beside the
per-probe oracle; they now run on one store each.

The get's charges over every policy, cache, device and tracer are frozen
in ``tests/test_retired_oracles.py`` (``retired_oracles/lookup``); the
cases here check behaviour against a model of the store and the store's
own state before and after.
"""

import random

import pytest

from repro import DB, RingBufferSink, Tracer
from repro.errors import CorruptionError, EngineError
from repro.faults.plan import FaultPlan
from repro.lsm.bloom import BloomFilter
from repro.lsm.config import LSMConfig
from repro.lsm.record import KIND_DELETE

#: Stored keys are the even indices; odd indices are gap keys.
MAX_INDEX = 120

#: A disabled filter: answers "maybe" to every probe, forcing the block
#: read behind it.
ALWAYS_MAYBE = BloomFilter((), 0)


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


def deep_store(policy, cache_bytes: int = 4096, faulty: bool = False) -> tuple:
    """A traced store three overwrite rounds deep, drained to disk, and
    its model."""
    db = DB(
        config=tiny(cache_bytes),
        policy=policy,
        tracer=Tracer([RingBufferSink()]),
        fault_plan=FaultPlan() if faulty else None,
    )
    model = load(db, seed=7, puts=120, rounds=3)
    db.flush()
    return db, model


def load(db: DB, seed: int, puts: int, rounds: int = 1) -> dict:
    """Random overwrites of the even keys: a multi-level tree."""
    rng = random.Random(seed)
    model = {}
    for _ in range(rounds):
        for index in rng.choices(range(0, MAX_INDEX + 1, 2), k=puts):
            model[make_key(index)] = b"seed-%03d" % index + b"s" * 25
            db.put(make_key(index), model[make_key(index)])
    return model


def linked_files(db: DB):
    """``(level, position, table)`` of every file carrying slice links."""
    return [
        (level, position, table)
        for level in range(1, db.version.num_levels)
        for position, table in enumerate(db.version.files(level))
        if table.slice_links
    ]


@pytest.mark.parametrize("policy", ("udc", "ldc", "tiered", "delayed"))
class TestDirectedKeys:
    def test_absent_gap_and_far_keys(self, policy):
        db, model = deep_store(policy)
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
            assert db.get(key) == model.get(key), key

    def test_tombstones_shadow_older_versions(self, policy):
        db, model = deep_store(policy)
        doomed = sorted(model)[10:30]
        for key in doomed:
            db.delete(key)
            del model[key]
        for key in doomed:  # tombstones still in the memtable / Level 0
            assert db.get(key) is None
        db.flush()
        # Push the tombstones down the tree; some doomed keys come back.
        model.update(load(db, seed=9, puts=60))
        assert any(key not in model for key in doomed)
        for key in doomed:
            assert db.get(key) == model.get(key)
        db.check_invariants()


class TestDirectedSlices:
    """LDC-only shapes: what a lookup does with linked slices."""

    def test_responsibility_gap_keys_reach_only_the_slices(self):
        db, model = deep_store("ldc")
        gaps = 0
        for level, position, table in linked_files(db):
            files = db.version.files(level)
            if position == 0:
                continue
            # Odd (never stored) and even keys strictly between the
            # previous file's max and this file's min: routed here by
            # responsibility, outside the file's own range.
            lower = int(files[position - 1].max_key)
            upper = int(table.min_key)
            for index in range(lower + 1, upper):
                gaps += 1
                assert db.get(make_key(index)) == model.get(make_key(index))
        assert gaps, "no responsibility gap in the tree; the test is vacuous"

    def test_slice_wider_than_its_source_charges_nothing(self):
        """A slice covers the key, its source's own range does not.

        Reachable on a Bloom false positive (forced here): the lookup has
        no block to read in the source, so it must charge nothing for it.
        """
        db, model = deep_store("ldc", cache_bytes=0)
        found = [
            (piece.source, make_key(index))
            for _level, _position, table in linked_files(db)
            for piece in table.slice_links
            for index in range(MAX_INDEX + 4)
            if piece.covers_key(make_key(index))
            and not piece.source.covers_key(make_key(index))
        ]
        assert found, "no slice wider than its source; the test is vacuous"
        for table in all_files(db):
            if table.frozen:
                table._bloom = ALWAYS_MAYBE
        before = observable_state(db)
        for source, key in found:
            tally = [0, 0, 0]
            assert db._read_block(source, key, tally) is None
            assert tally == [0, 0, 0]
        assert observable_state(db) == before
        for _source, key in found:
            assert db.get(key) == model.get(key)

    def test_key_outside_a_slice_span_costs_no_probe(self, monkeypatch):
        """A key in a slice's responsibility range ``[lo, hi)`` but outside
        its key span ``[min_key, max_key]`` is not in the slice: the get
        charges neither the slice's filter check nor a block read of its
        source, as for a file whose range misses the key."""
        db, model = deep_store("ldc", cache_bytes=0)
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
            assert db.get(key) == model.get(key)
            assert source not in probed and source not in read, key

    def test_slice_hit_shadows_its_carrier_table(self):
        db, model = deep_store("ldc")
        shadowed = 0
        for _level, _position, table in linked_files(db):
            for piece in table.slice_links:
                for record in piece.records():
                    if table.get(record.key) is not None:
                        shadowed += 1
                        assert db.get(record.key) == model.get(record.key)
        assert shadowed, "no slice record shadows its carrier; vacuous"

    def test_get_stops_at_the_newest_slice_that_holds_the_key(self):
        """A key two slices of one carrier hold costs one block read.

        Churn (puts and deletes) after the deep load until such keys
        exist and one's newest slice holds a tombstone.  Only keys the
        newest slice answers count: nothing above or in the memtable
        holds a newer version.
        """
        db, model = deep_store("ldc", cache_bytes=0)
        rng = random.Random(3)
        held = {}
        for step in range(600):
            key = make_key(rng.randrange(0, MAX_INDEX + 1, 2))
            if rng.random() < 0.2:
                db.delete(key)
                model.pop(key, None)
            else:
                model[key] = b"churn-%03d" % step
                db.put(key, model[key])
            held = slice_answered_keys(db)
            if any(record.kind == KIND_DELETE for record in held.values()):
                break
        assert held, "no key held by two slices of one carrier; vacuous"
        assert any(record.kind == KIND_DELETE for record in held.values()), (
            "no newest slice holds a tombstone; vacuous"
        )
        for key in held:
            before = db.metrics().get("engine.sstable_blocks_read", 0)
            assert db.get(key) == model.get(key)
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
        db, model = deep_store(policy, cache_bytes, faulty=True)
        key = sorted(model)[len(model) // 2]
        # The next device read delivers flipped bits.
        db.device.faults.corrupt_read(db.device.faults.read_count + 1)
        residency = observable_state(db)[3]
        with pytest.raises(CorruptionError, match="failed CRC verification"):
            db.get(key)
        assert db.registry.counter("faults.corruptions_detected") == 1
        assert observable_state(db)[3] == residency  # nothing installed
        # The store stays readable after the fault.
        assert db.get(key) == model[key]


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
