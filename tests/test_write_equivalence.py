"""Directed writes: throttles, torn and failing appends, refused writes,
and WAL replay against a model of the log.

The write path's charges and log image after every step, over UDC, LDC
and tiered with zero and one background thread, are frozen in
``tests/test_retired_oracles.py`` (``retired_oracles/write``); the cases
here check behaviour against models and the store's own state.  The
file keeps the name it had when these cases also ran beside the old
write path.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DB, RingBufferSink, Tracer, get_spec
from repro.core.adaptive import AdaptiveThreshold
from repro.errors import (
    ClosedError, EngineError, FlashFullError, ReproError, SimulatedCrash,
)
from repro.faults.plan import FaultPlan
from repro.lsm.config import LSMConfig
from repro.lsm.db import WriteBatch
from repro.ssd.flash import DeviceConfig, FlashSpec
from repro.ssd.metrics import WAL_WRITE

POLICIES = ("udc", "ldc", "tiered")
MAX_INDEX = 60


def tiny(bg_threads: int) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=512,
        sstable_target_bytes=512,
        block_bytes=128,
        fan_out=3,
        level1_capacity_bytes=1024,
        max_levels=5,
        # Level 0 slows writes at two files and stops them at three; a
        # large batch flushes several Level-0 files at once.
        l0_compaction_trigger=2,
        l0_slowdown_trigger=2,
        l0_stop_trigger=3,
        l0_slowdown_delay_us=40.0,
        bg_threads=bg_threads,
    )


def make_key(index: int) -> bytes:
    return b"key-%04d" % index


def build(policy, bg_threads=0, faulty=False, adaptive=False, flash=None) -> DB:
    return DB(
        config=tiny(bg_threads),
        policy=get_spec(policy).derive(adaptive=True) if adaptive else policy,
        profile=DeviceConfig(flash=flash),
        tracer=Tracer([RingBufferSink()]),
        fault_plan=FaultPlan() if faulty else None,
    )


def batch_of(entries) -> WriteBatch:
    batch = WriteBatch()
    batch.entries = list(entries)
    return batch


def arm_crash(db: DB, torn_fraction: float) -> None:
    """Crash the store's next WAL append, leaving ``torn_fraction`` of it."""
    faults = db.device.faults
    faults.crash_at(
        faults.category_counts.get(WAL_WRITE, 0) + 1,
        category=WAL_WRITE,
        torn_fraction=torn_fraction,
    )


def charged(db: DB) -> tuple:
    return (db.clock.now(), db.registry.counters(), db.registry.gauges(),
            db.last_sequence, db._wal.unflushed_bytes)


class TestDirected:
    @pytest.mark.parametrize("bg_threads", (0, 1))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_write_stream_with_slowdowns_and_stops(self, policy, bg_threads):
        db = build(policy, bg_threads)
        rng = random.Random(11)
        model = {}
        for step in range(900):
            index = rng.randrange(MAX_INDEX)
            if step % 17 == 0:
                db.delete(make_key(index))
                model.pop(make_key(index), None)
            elif step % 50 == 0:
                # Several Level-0 files from one flush.
                entries = [(make_key(rng.randrange(MAX_INDEX)), b"b" * 100)
                           for _ in range(30)]
                db.write_batch(batch_of(entries))
                model.update(entries)
            else:
                model[make_key(index)] = b"w" * rng.randrange(80)
                db.put(make_key(index), model[make_key(index)])
        reasons = {
            event.fields["reason"]
            for sink in db.tracer._sinks
            for event in sink.events
            if event.kind == "stall"
        }
        assert db.metrics().get("engine.flush_count") > 20
        if policy != "tiered" or bg_threads:
            assert reasons == {"l0_slowdown", "l0_stop"}
        assert dict(db.logical_items()) == model
        db.check_invariants()

    def test_adaptive_threshold_observes_every_write(self):
        db = build("ldc", adaptive=True)
        rng = random.Random(3)
        for _ in range(600):
            db.put(make_key(rng.randrange(MAX_INDEX)), b"a" * 40)
        observed = db.policy.movement._adaptive
        every_write = AdaptiveThreshold(db.config.fan_out)
        for _ in range(600):
            every_write.observe(True)
        assert observed.write_ratio > 0.5
        assert (observed.write_ratio, observed._pending_ops) == (
            every_write.write_ratio, every_write._pending_ops)

    @pytest.mark.parametrize("torn_fraction", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("batch", (False, True))
    def test_crashed_appends_tear_the_same_image(self, torn_fraction, batch):
        """At every torn fraction the recovered image is the same: only
        the torn append is dropped."""
        db = build("ldc", faulty=True)
        for index in range(10):
            db.put(make_key(index), b"x" * 30)
        arm_crash(db, torn_fraction)
        with pytest.raises(SimulatedCrash):
            if batch:
                db.write_batch(batch_of([(make_key(1), b"y"), (make_key(2), None)]))
            else:
                db.put(make_key(1), b"y" * 30)
        assert db._wal.has_torn_tail
        # Writes go on after the torn append; recovery drops only it.
        db.put(make_key(4), b"z")
        assert db.crash_and_recover() == 11
        assert db.metrics()["faults.torn_records_dropped"] == 1
        assert db.get(make_key(1)) == b"x" * 30

    #: Three one-page blocks and a one-block GC reserve: the five 51-byte
    #: appends below stream three 64-byte pages, and the next append's
    #: page finds only the reserve left and nothing for GC to reclaim.
    FULL_AFTER_FIVE = FlashSpec(page_bytes=64, pages_per_block=1,
                                logical_bytes=192, over_provisioning=0.0,
                                gc_reserve_blocks=1)

    @pytest.mark.parametrize("batch", (False, True))
    def test_a_persistently_failing_append_is_a_torn_unit(self, batch):
        """Not a crash: the device gave up on the write (it is full).  The
        unit is dropped at recovery, its bytes still counted on media."""
        db = build("udc", faulty=True, flash=self.FULL_AFTER_FIVE)
        for index in range(5):
            db.put(make_key(index), b"x" * 30)
        before = db._wal.unflushed_bytes
        with pytest.raises(FlashFullError):
            if batch:
                db.write_batch(batch_of([(make_key(1), b"y"), (make_key(2), b"z")]))
            else:
                db.put(make_key(1), b"y" * 30)
        assert db._wal.has_torn_tail
        assert db._wal.unflushed_bytes > before
        assert db.crash_and_recover() == 5
        assert db.metrics()["faults.torn_records_dropped"] == 1

    def test_rejected_writes_charge_nothing(self):
        db = build("udc")
        db.put(make_key(1), b"v")
        before = charged(db)
        refused = [
            lambda: db.put(b"", b"v"),
            lambda: db.put("text", b"v"),
            lambda: db.put(make_key(2), "text"),
            lambda: db.delete(b""),
            lambda: db.write_batch(batch_of([(make_key(3), "text")])),
        ]
        kinds = []
        for write in refused:
            with pytest.raises((ReproError, TypeError)) as error:
                write()
            kinds.append(error.type)
            assert charged(db) == before
        assert kinds == [EngineError, TypeError, TypeError, EngineError, TypeError]
        assert db.last_sequence == 1

    def test_closed_store_refuses_writes(self):
        db = DB(config=tiny(0))
        db.close()
        with pytest.raises(ClosedError):
            db.put(make_key(1), b"v")
        with pytest.raises(ClosedError):
            db.delete(make_key(1))

    def test_write_inside_a_clock_capture_is_a_typed_error(self):
        db = DB(config=tiny(0), policy="ldc")
        db.put(make_key(1), b"v")
        before = (db.clock.now(), db._wal.unflushed_bytes)
        db.clock.begin_capture()
        try:
            with pytest.raises(EngineError, match="clock capture"):
                db.put(make_key(2), b"w")
            with pytest.raises(EngineError, match="clock capture"):
                db.write_batch(WriteBatch().put(make_key(3), b"x"))
        finally:
            db.clock.end_capture()
        assert (db.clock.now(), db._wal.unflushed_bytes) == before
        assert db.get(make_key(2)) is None
        db.put(make_key(2), b"w")
        assert db.get(make_key(2)) == b"w"


indices = st.integers(0, MAX_INDEX)
values = st.one_of(
    st.binary(max_size=40),
    st.integers(0, 3).map(lambda n: b"v" * (24 * n)),
)
entries = st.one_of(
    st.lists(st.tuples(indices, st.one_of(st.none(), values)), max_size=6),
    st.lists(st.tuples(indices, st.just(b"b" * 100)), min_size=20, max_size=30),
)
#: Batches over eight keys, so one batch often writes a key twice.
crowded_batches = st.lists(
    st.tuples(st.integers(0, 7), st.one_of(st.none(), values)),
    min_size=1, max_size=8,
)
recovery_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), indices, values),
        st.tuples(st.just("delete"), indices, st.none()),
        st.tuples(st.just("batch"), st.one_of(crowded_batches, entries), st.none()),
        st.tuples(st.just("crash"), st.sampled_from((0.0, 0.5, 1.0)), st.booleans()),
        st.tuples(st.just("recover"), st.none(), st.none()),
    ),
    max_size=40,
)


class TestRecoveryModel:
    """WAL replay against a model of the log.

    One store is driven through puts, deletes and batches (keys repeated
    inside a batch), crashes that tear an append at 0, ½ and all of its
    bytes, and recoveries, ending with a recovery on top of a recovery.  After each
    recovery the memtable holds the last record per key of the log's
    durable image, counts exactly those records' bytes and yields its keys
    sorted; and the store serves exactly the writes it acknowledged.
    """

    @staticmethod
    def recover(db: DB, acknowledged: dict) -> None:
        db.crash_and_recover()
        newest = {record.key: record for record in db._wal._records}
        keys, records = db._memtable.sorted_columns()
        assert dict(zip(keys, records)) == newest
        assert len(keys) == len(newest)
        assert db._memtable.approximate_bytes == sum(
            record.size for record in newest.values()
        )
        assert keys == sorted(keys)
        live = {key: value for key, value in acknowledged.items() if value is not None}
        assert dict(db.logical_items()) == live

    @pytest.mark.parametrize("bg_threads", (0, 1))
    @given(ops=recovery_operations)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_replay_rebuilds_the_newest_record_per_key(self, bg_threads, ops):
        db = DB(config=tiny(bg_threads), policy="ldc", fault_plan=FaultPlan())
        acknowledged = {}

        def write(entries) -> None:
            batch = WriteBatch()
            batch.entries = [(make_key(index), value) for index, value in entries]
            db.write_batch(batch)
            acknowledged.update(batch.entries)

        for kind, arg, extra in ops:
            if kind == "put":
                db.put(make_key(arg), extra)
                acknowledged[make_key(arg)] = extra
            elif kind == "delete":
                db.delete(make_key(arg))
                acknowledged[make_key(arg)] = None
            elif kind == "batch":
                write(arg)
            elif kind == "crash":
                faults = db.device.faults
                faults.crash_at(
                    faults.category_counts.get(WAL_WRITE, 0) + 1,
                    category=WAL_WRITE,
                    torn_fraction=arg,
                )
                with pytest.raises(SimulatedCrash):
                    write([(1, b"a"), (1, None)] if extra else [(3, b"c" * 30)])
                self.recover(db, acknowledged)
            else:
                self.recover(db, acknowledged)
        self.recover(db, acknowledged)
        self.recover(db, acknowledged)
        db.check_invariants()
