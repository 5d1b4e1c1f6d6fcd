"""The one-frame write path and the flat log against the old ones.

Two stores are built identically and driven through the same puts,
deletes, batches, flushes and crashes — one through ``DB.put`` /
``DB.delete`` / ``DB.write_batch`` over the flat ``WriteAheadLog``, the
other through ``tests/_write_oracle.py`` (the old methods over the
unit-list log).  After *every* step they must agree on the clock to the
bit, every counter and gauge, the trace, and the log image: its complete
records in order, its byte count, checksum and torn units.  Configurations
cover the synchronous engine and one background thread, with Level-0
triggers low enough that writes slow down and stop, and a fault plan
whose crash points tear appends.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DB, RingBufferSink, Tracer, get_spec
from repro.errors import ClosedError, DeviceError, EngineError, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.lsm.config import LSMConfig
from repro.lsm.db import WriteBatch
from repro.ssd.flash import DeviceConfig, FlashSpec
from repro.ssd.metrics import WAL_WRITE

from . import _write_oracle as oracle

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


def log_image(wal):
    """The log's durable image: records, bytes, count, torn state, CRC."""
    if wal is None:
        return None
    units = getattr(wal, "_units", None)
    if units is not None:  # the oracle's unit list
        records = [record for unit in units if unit.complete for record in unit.records]
        torn = sum(not unit.complete for unit in units)
    else:
        records, torn = list(wal._records), wal._torn
    return (
        records, torn, wal.unflushed_bytes, wal.unflushed_count,
        wal.has_torn_tail, wal.checksum(),
    )


def observable_state(db: DB) -> tuple:
    events = [
        (event.kind, event.t_us, event.fields)
        for sink in db.tracer._sinks
        for event in sink.events
    ]
    return (
        db.clock.now(),
        db.registry.counters(),
        db.registry.gauges(),
        db.last_sequence,
        log_image(db._wal),
        events,
        [[table.file_id for table in files] for files in db.version.levels],
    )


class Pair:
    """A store written through ``DB`` beside its oracle-written twin."""

    def __init__(self, policy, bg_threads=0, faulty=False, adaptive=False,
                 flash=None):
        def build():
            return DB(
                config=tiny(bg_threads),
                policy=get_spec(policy).derive(adaptive=True) if adaptive
                else policy,
                profile=DeviceConfig(flash=flash),
                tracer=Tracer([RingBufferSink()]),
                fault_plan=FaultPlan() if faulty else None,
            )

        self.new, self.old = build(), build()
        oracle.install(self.old)

    def both(self, new_call, old_call):
        """Run one step on each store; the same outcome, the same state."""
        outcomes = []
        for call, db in ((new_call, self.new), (old_call, self.old)):
            try:
                outcomes.append(("ok", call(db)))
            except (SimulatedCrash, DeviceError, TypeError, EngineError) as error:
                outcomes.append((type(error).__name__, str(error)))
        assert outcomes[0] == outcomes[1]
        self.assert_same_state()
        return outcomes[0]

    def put(self, key, value):
        return self.both(lambda db: db.put(key, value),
                         lambda db: oracle.put(db, key, value))

    def delete(self, key):
        return self.both(lambda db: db.delete(key),
                         lambda db: oracle.delete(db, key))

    def write_batch(self, entries):
        def batch():
            made = WriteBatch()
            made.entries = list(entries)
            return made

        return self.both(lambda db: db.write_batch(batch()),
                         lambda db: oracle.write_batch(db, batch()))

    def arm_crash(self, torn_fraction: float) -> None:
        """Crash both stores' next WAL append, leaving ``torn_fraction`` of it."""
        for db in (self.new, self.old):
            faults = db.device.faults
            faults.crash_at(
                faults.category_counts.get(WAL_WRITE, 0) + 1,
                category=WAL_WRITE,
                torn_fraction=torn_fraction,
            )

    def recover(self):
        return self.both(lambda db: db.crash_and_recover(),
                         lambda db: db.crash_and_recover())

    def assert_same_state(self) -> None:
        assert observable_state(self.new) == observable_state(self.old)


indices = st.integers(0, MAX_INDEX)
values = st.one_of(
    st.binary(max_size=40),
    st.integers(0, 3).map(lambda n: b"v" * (24 * n)),
)
entries = st.one_of(
    st.lists(st.tuples(indices, st.one_of(st.none(), values)), max_size=6),
    st.lists(st.tuples(indices, st.just(b"b" * 100)), min_size=20, max_size=30),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), indices, values),
        st.tuples(st.just("put"), indices, values),
        st.tuples(st.just("delete"), indices, st.none()),
        st.tuples(st.just("batch"), entries, st.none()),
        st.tuples(st.just("flush"), st.none(), st.none()),
        st.tuples(st.just("crash"), st.sampled_from((0.0, 0.5, 1.0)), st.booleans()),
        st.tuples(st.just("recover"), st.none(), st.none()),
    ),
    max_size=60,
)


def run(pair: Pair, ops) -> None:
    for kind, arg, extra in ops:
        if kind == "put":
            pair.put(make_key(arg), extra)
        elif kind == "delete":
            pair.delete(make_key(arg))
        elif kind == "batch":
            pair.write_batch([(make_key(index), value) for index, value in arg])
        elif kind == "flush":
            pair.both(lambda db: db.flush(), lambda db: db.flush())
        elif kind == "crash":
            pair.arm_crash(arg)
            # The crash lands on the next append: a put, or a whole batch.
            if extra:
                pair.write_batch([(make_key(1), b"a"), (make_key(2), None)])
            else:
                pair.put(make_key(3), b"c" * 30)
        else:
            pair.recover()


@pytest.mark.parametrize("bg_threads", (0, 1))
@pytest.mark.parametrize("policy", POLICIES)
class TestAgainstTheOldWritePath:
    @given(ops=operations, seed=st.integers(0, 3))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_clock_counters_and_log(self, policy, bg_threads, ops, seed):
        pair = Pair(policy, bg_threads, faulty=True)
        # A multi-level tree first, so drawn writes meet flushes and rounds.
        rng = random.Random(seed)
        for _ in range(120):
            pair.put(make_key(rng.randrange(MAX_INDEX)), b"p" * rng.randrange(60))
        run(pair, ops)
        pair.recover()
        pair.new.check_invariants()


class TestDirected:
    @pytest.mark.parametrize("bg_threads", (0, 1))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_write_stream_with_slowdowns_and_stops(self, policy, bg_threads):
        pair = Pair(policy, bg_threads)
        rng = random.Random(11)
        for step in range(900):
            index = rng.randrange(MAX_INDEX)
            if step % 17 == 0:
                pair.delete(make_key(index))
            elif step % 50 == 0:
                # Several Level-0 files from one flush.
                pair.write_batch(
                    [(make_key(rng.randrange(MAX_INDEX)), b"b" * 100) for _ in range(30)]
                )
            else:
                pair.put(make_key(index), b"w" * rng.randrange(80))
        reasons = {
            event.fields["reason"]
            for sink in pair.new.tracer._sinks
            for event in sink.events
            if event.kind == "stall"
        }
        assert pair.new.metrics().get("engine.flush_count") > 20
        if policy != "tiered" or bg_threads:
            assert reasons == {"l0_slowdown", "l0_stop"}

    def test_adaptive_threshold_observes_every_write(self):
        pair = Pair("ldc", adaptive=True)
        rng = random.Random(3)
        for _ in range(600):
            pair.put(make_key(rng.randrange(MAX_INDEX)), b"a" * 40)
        new, old = (db.policy.movement._adaptive for db in (pair.new, pair.old))
        assert new.write_ratio > 0.5
        assert (new.write_ratio, new._pending_ops) == (old.write_ratio, old._pending_ops)

    @pytest.mark.parametrize("torn_fraction", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("batch", (False, True))
    def test_crashed_appends_tear_the_same_image(self, torn_fraction, batch):
        pair = Pair("ldc", faulty=True)
        for index in range(10):
            pair.put(make_key(index), b"x" * 30)
        pair.arm_crash(torn_fraction)
        if batch:
            outcome = pair.write_batch([(make_key(1), b"y"), (make_key(2), None)])
        else:
            outcome = pair.put(make_key(1), b"y" * 30)
        assert outcome[0] == "SimulatedCrash"
        assert pair.new._wal.has_torn_tail
        # Writes go on after the torn append; recovery drops only it.
        pair.put(make_key(4), b"z")
        assert pair.recover() == ("ok", 11)
        assert pair.new.metrics()["faults.torn_records_dropped"] == 1
        assert pair.new.get(make_key(1)) == b"x" * 30

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
        pair = Pair("udc", faulty=True, flash=self.FULL_AFTER_FIVE)
        for index in range(5):
            pair.put(make_key(index), b"x" * 30)
        if batch:
            outcome = pair.write_batch([(make_key(1), b"y"), (make_key(2), b"z")])
        else:
            outcome = pair.put(make_key(1), b"y" * 30)
        assert outcome[0] == "FlashFullError"
        assert pair.new._wal.has_torn_tail
        assert pair.recover() == ("ok", 5)
        assert pair.new.metrics()["faults.torn_records_dropped"] == 1

    def test_rejected_writes_charge_nothing(self):
        pair = Pair("udc")
        pair.put(make_key(1), b"v")
        assert pair.put(b"", b"v")[0] == "EngineError"
        assert pair.put("text", b"v")[0] == "TypeError"
        assert pair.put(make_key(2), "text")[0] == "TypeError"
        assert pair.delete(b"")[0] == "EngineError"
        assert pair.write_batch([(make_key(3), "text")])[0] == "TypeError"
        assert pair.new.last_sequence == 1

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

    Both stores of a pair recover through the same ``DB.crash_and_recover``,
    so the pair-run cannot see the replay itself.  Here one store is
    driven through puts, deletes and batches (keys repeated inside a
    batch), crashes that tear an append at 0, ½ and all of its bytes, and
    recoveries, ending with a recovery on top of a recovery.  After each
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
