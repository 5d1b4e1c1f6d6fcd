"""Unit tests for the virtual-time compaction scheduler (repro.sched).

Covers the scheduler's contract pieces in isolation: construction and
attachment, chunkification, the capture/replay cycle, draining, crash
discard, L0 throttling accounting and determinism.  The cross-policy
logical-equivalence guarantees live in test_differential.py /
test_sched_properties.py.
"""

import random

import pytest

from repro import (
    DB,
    CompactionScheduler,
    RingBufferSink,
    ServeSpec,
    Tracer,
    get_spec,
    serve_workload,
)
from repro.lsm.compaction.base import MaintenanceEngine
from repro.lsm.config import MEMTABLE_INSERT_US, LSMConfig
from repro.obs import EV_STALL
from repro.ssd.clock import CAPTURE_CPU, CAPTURE_IO
from repro.workload import OP_PUT, Operation, WorkloadSpec

POLICIES = ("delayed", "ldc", "tiered", "udc")


def sched_config(bg_threads: int = 1, **overrides) -> LSMConfig:
    """Tiny geometry that compacts within a few hundred ops."""
    params = dict(
        memtable_bytes=2048,
        sstable_target_bytes=2048,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=4096,
        max_levels=6,
        bg_threads=bg_threads,
    )
    params.update(overrides)
    return LSMConfig(**params)


def key_of(index: int) -> bytes:
    return str(index).zfill(12).encode()


def write_some(db, count: int, seed: int = 7, key_space: int = 400) -> None:
    rng = random.Random(seed)
    for _ in range(count):
        db.put(key_of(rng.randrange(key_space)), b"v" * 64)


class TestConstruction:
    def test_scheduler_off_by_default(self):
        """The default store runs the maintenance engine with zero threads."""
        db = DB()
        assert type(db.sched) is MaintenanceEngine
        assert db.sched.num_threads == 0
        assert db.device.channel is None

    def test_scheduler_on_attaches_channel(self):
        db = DB(config=sched_config(bg_threads=2))
        assert isinstance(db.sched, CompactionScheduler)
        assert isinstance(db.sched, MaintenanceEngine)
        assert db.sched.num_threads == 2
        assert db.device.channel is db.sched.channel

    def test_zero_threads_is_the_synchronous_engine(self):
        """No thread, no channel: a round's time is the foreground's, now."""
        db = DB(config=sched_config(bg_threads=0))
        assert db.sched.num_threads == 0
        assert db.device.channel is None
        write_some(db, 600)
        assert db.registry.counter("engine.compaction_count") > 0
        assert not db.sched.in_flight
        before = db.clock.now()
        assert db.sched.drain() == before
        assert db.sched.discard_inflight() == 0
        db.check_invariants()

    def test_sched_counters_absent_when_off(self):
        db = DB(config=sched_config(bg_threads=0))
        write_some(db, 300)
        snap = db.metrics()
        assert not [key for key in snap.counters if key.startswith("sched.")]


class TestChunkify:
    def test_io_split_at_block_granularity(self):
        db = DB(config=sched_config(bg_threads=1))
        chunk_bytes = db.sched._chunk_bytes
        assert chunk_bytes == db.config.block_bytes
        items = [(CAPTURE_IO, 8.0, 3 * chunk_bytes + 1)]  # 3 full + 1 partial
        chunks = db.sched._chunkify(items)
        assert len(chunks) == 4
        assert all(kind == CAPTURE_IO for kind, _ in chunks)
        assert sum(duration for _, duration in chunks) == pytest.approx(8.0)

    def test_cpu_split_by_block_read_cost(self):
        db = DB(config=sched_config(bg_threads=1))
        cpu_chunk = db.sched._cpu_chunk_us
        items = [(CAPTURE_CPU, 2.5 * cpu_chunk, 0)]
        chunks = db.sched._chunkify(items)
        assert len(chunks) == 3
        assert sum(duration for _, duration in chunks) == pytest.approx(
            2.5 * cpu_chunk
        )

    def test_zero_duration_items_dropped(self):
        db = DB(config=sched_config(bg_threads=1))
        assert db.sched._chunkify([(CAPTURE_CPU, 0.0, 0)]) == []


class TestReplay:
    def test_workload_enqueues_and_completes_tasks(self):
        db = DB(config=sched_config(bg_threads=1))
        write_some(db, 600)
        db.sched.drain()
        counter = db.registry.counter
        assert counter("sched.tasks_enqueued") > 0
        assert counter("sched.tasks_completed") == counter("sched.tasks_enqueued")
        assert counter("sched.chunks_executed") > 0
        assert counter("sched.bg_busy_us") > 0
        db.check_invariants()

    def test_drain_pays_all_debt_and_advances_clock(self):
        db = DB(config=sched_config(bg_threads=1))
        write_some(db, 600)
        before = db.clock.now()
        after = db.sched.drain()
        assert after == db.clock.now() >= before
        assert db.sched.pending_chunks() == 0
        assert not db.sched.in_flight

    def test_close_drains(self):
        db = DB(config=sched_config(bg_threads=1))
        write_some(db, 600)
        db.close()
        assert db.sched.pending_chunks() == 0

    def test_foreground_waits_behind_background_io(self):
        db = DB(config=sched_config(bg_threads=1))
        write_some(db, 800)
        db.sched.drain()
        assert db.registry.counter("sched.device_waits") > 0
        assert db.registry.counter("sched.device_wait_us") > 0

    def test_no_background_work_before_any_trigger(self):
        db = DB(config=sched_config(bg_threads=1))
        db.put(key_of(1), b"v")  # far below the memtable threshold
        assert db.registry.counter("sched.tasks_enqueued") == 0
        # Foreground I/O occupies the channel as it runs, but never into
        # the future — only background chunks extend the horizon past now.
        assert db.sched.channel.busy_until_us <= db.clock.now()

    def test_logical_contents_match_scheduler_off(self):
        ops = 500
        with_sched = DB(config=sched_config(bg_threads=1), policy="ldc")
        without = DB(config=sched_config(bg_threads=0), policy="ldc")
        write_some(with_sched, ops)
        write_some(without, ops)
        with_sched.sched.drain()
        assert list(with_sched.logical_items()) == list(without.logical_items())

    @staticmethod
    def round_in_flight():
        """A one-thread UDC store with a compaction round just captured;
        returns the store, the round and the debt still owed (the round's
        chunks and any unfinished flush)."""
        db = DB(config=LSMConfig(bg_threads=1), policy="udc")
        sched = db.sched
        rng = random.Random(7)
        puts = 0
        while sched.threads[0].task is None:
            db.put(key_of(rng.randrange(100_000)), b"v" * 1024)
            puts += 1
            assert puts < 1000, "no round in flight"
        round_ = sched.threads[0].task
        debt = sum(
            duration
            for task in (round_, sched.flush_lane.task)
            if task is not None
            for _, duration in task.chunks[task.next_chunk:]
        )
        return db, round_, debt

    def test_an_idle_gap_replays_the_round_before_the_next_put(self):
        """A round captured at t, then no I/O until t + 2 x debt: the round
        has finished by the next put, and the put waits for nothing."""
        db, round_, debt = self.round_in_flight()
        counter = db.registry.counter
        # The serve loop's idle jump: time passes, no operation runs.
        db.clock.advance_to(db.clock.now() + 2 * debt)
        start = db.clock.now()
        wal_us = counter("device.write.wal_write.time_us")
        db.put(key_of(0), b"w" * 1024)
        assert round_.done
        paid = db.clock.now() - start
        own = counter("device.write.wal_write.time_us") - wal_us
        assert paid == pytest.approx(own + MEMTABLE_INSERT_US)

    def test_requests_served_after_an_idle_gap_wait_for_no_chunk(self):
        """The serve loop's twin: two puts arrive back to back 2 x debt
        after the round was captured.  The gap pays the round off, so
        neither put waits for the device channel.  (Replayed only after
        the first put's own I/O, the owed chunks would queue the second
        put behind them.)"""
        db, round_, debt = self.round_in_flight()
        waited = db.registry.counter("sched.device_wait_us")
        operations = [Operation(OP_PUT, key_of(n), b"w" * 1024) for n in (0, 1)]
        serve_workload(
            WorkloadSpec(name="WO", num_operations=2, write_ratio=1.0),
            "udc",
            ServeSpec(rate_ops_s=1000.0),
            db=db,
            operations=operations,
            arrivals=[2 * debt, 2 * debt + 0.001],
        )
        assert db.registry.counter("sched.device_wait_us") == waited
        assert round_.done


class TestFlushLane:
    """With a thread the memtable flush is background work on its own lane."""

    @staticmethod
    def filling_put(bg_threads: int) -> dict:
        """Drive a UDC store to Level 0 one file short of the compaction
        trigger, pay everything off, then put until a put flushes; return
        what that put paid and left in flight."""
        config = sched_config(bg_threads=bg_threads)
        db = DB(config=config, policy="udc")
        counter = db.registry.counter
        rng = random.Random(7)
        write_some(db, 200)
        while len(db.version.levels[0]) < config.l0_compaction_trigger - 1:
            db.put(key_of(rng.randrange(400)), b"v" * 64)
        db.sched.drain()
        assert not db.sched.in_flight
        while True:
            flushes = counter("engine.flush_count")
            wal_us = counter("device.write.wal_write.time_us")
            flush_us = counter("device.write.flush_write.time_us")
            flush_activity = counter("engine.activity.flush")
            start = db.clock.now()
            db.put(key_of(rng.randrange(400)), b"v" * 64)
            if counter("engine.flush_count") > flushes:
                break
        return {
            "db": db,
            "start": start,
            "paid": db.clock.now() - start,
            "wal_us": counter("device.write.wal_write.time_us") - wal_us,
            "flush_us": counter("device.write.flush_write.time_us") - flush_us,
            "flush_activity": counter("engine.activity.flush") - flush_activity,
        }

    def test_a_filling_put_pays_only_its_wal_write_and_insert(self):
        put = self.filling_put(bg_threads=1)
        db, sched = put["db"], put["db"].sched
        assert put["paid"] == pytest.approx(
            put["wal_us"] + MEMTABLE_INSERT_US, rel=1e-12
        )
        assert put["flush_us"] > put["paid"]
        # The flush's time is one task on the lane.
        flush = sched.flush_lane.task
        assert flush is not None and flush.policy == "flush"
        assert flush.enqueued_us == put["start"] + put["paid"]
        assert sched.flush_lane not in sched.threads
        assert put["flush_activity"] == 0
        # The round the new file made due was captured in the same put and
        # runs on the compaction thread.
        round_ = sched.threads[0].task
        assert round_ is not None and round_.policy == "udc"
        assert round_.enqueued_us == flush.enqueued_us
        flush_io = sum(d for kind, d in flush.chunks if kind == CAPTURE_IO)
        round_io = sum(d for kind, d in round_.chunks if kind == CAPTURE_IO)
        debt = sum(d for _, d in flush.chunks) + sum(d for _, d in round_.chunks)
        assert flush_io == pytest.approx(put["flush_us"], rel=1e-12)
        # The flush finishes first, and the round reads nothing before it
        # has: no IO chunk of the round has replayed by then.
        busy = db.registry.counter("sched.bg_busy_us")
        completed = db.registry.counter("sched.tasks_completed")
        assert sched._advance_to_next_completion()
        flush_end = db.clock.now()
        assert sched.flush_lane.task is None
        assert sched.threads[0].task is round_
        assert all(kind != CAPTURE_IO for kind, _ in round_.chunks[:round_.next_chunk])
        assert flush_end == pytest.approx(flush.enqueued_us + flush_io)
        # drain() pays both; one channel serialises their I/O, so the round
        # ends at least its transfers after the flush.
        end = sched.drain()
        assert not sched.in_flight
        assert db.registry.counter("sched.tasks_completed") == completed + 2
        assert db.registry.counter("sched.bg_busy_us") - busy == pytest.approx(debt)
        assert end - flush_end > round_io - 1e-6
        db.check_invariants()

    def test_a_flush_waits_for_the_unpaid_one(self):
        """LevelDB's one ``imm_``: a flush while the lane still holds one
        first waits for it to end, as write time."""
        db = self.filling_put(bg_threads=1)["db"]
        sched, counter = db.sched, db.registry.counter
        first = sched.flush_lane.task
        flush_io = sum(d for _, d in first.chunks)
        db.put(key_of(0), b"w" * 64)
        start = db.clock.now()
        write_us = counter("engine.activity.write")
        waits, wait_us = counter("sched.flush_waits"), counter("sched.flush_wait_us")
        assert start < first.enqueued_us + flush_io
        db.flush()
        # The put's WAL write took the channel once, so the first flush
        # ended at least its transfer after its capture.
        assert first.done
        assert db.clock.now() > first.enqueued_us + flush_io - 1e-6
        assert counter("sched.flush_waits") == waits + 1
        assert counter("sched.flush_wait_us") - wait_us == pytest.approx(
            db.clock.now() - start
        )
        assert counter("engine.activity.write") - write_us == pytest.approx(
            db.clock.now() - start
        )
        second = sched.flush_lane.task
        assert second is not first and second.enqueued_us == db.clock.now()
        sched.drain()
        db.check_invariants()

    def test_a_waiting_writer_lends_the_flush_its_priority(self):
        """A flush loses channel ties to a round captured before it, until
        a writer waits for it: the writer then waits out the flush, not the
        older round."""
        db = self.filling_put(bg_threads=1)["db"]
        sched = db.sched
        round_ = sched.threads[0].task
        assert sched._advance_to_next_completion()  # the first flush
        db.put(key_of(1), b"w" * 64)
        db.flush()  # the lane was free: no wait
        second = sched.flush_lane.task
        assert second.task_id > round_.task_id
        sched.pump(db.clock.now() + 1.0)
        assert second.next_chunk == 0  # the older round won every tie
        db.put(key_of(2), b"w" * 64)
        start = db.clock.now()
        left = sum(duration for _, duration in second.chunks[second.next_chunk:])
        longest = max(duration for _, duration in round_.chunks)
        db.flush()
        # The writer waited for the flush's transfers and at most the round
        # chunk already on the channel, not for the round's I/O.
        assert second.done and not round_.done
        assert db.clock.now() - start <= left + longest
        sched.drain()
        db.check_invariants()

    def test_a_stop_stall_does_not_wait_out_a_flush(self):
        """With no round due or in flight the stop stall gives up at once,
        whatever the flush lane holds: a flush cannot shrink Level 0."""
        db = DB(config=sched_config(bg_threads=1), policy="udc")
        write_some(db, 200)
        while not db.policy._maintenance_idle or db.sched.in_flight:
            db.get(key_of(0))
            db.sched.drain()
        db.put(key_of(0), b"v" * 64)
        db.flush()
        sched = db.sched
        assert sched.flush_lane.task is not None
        level0 = len(db.version.levels[0])
        assert level0 < db.config.l0_compaction_trigger
        assert sched.stall_until_l0_below(level0) == 0
        assert sched.flush_lane.task is not None

    def test_zero_threads_pay_the_flush_inline(self):
        put = self.filling_put(bg_threads=0)
        db = put["db"]
        inline = put["wal_us"] + MEMTABLE_INSERT_US + put["flush_us"]
        assert put["paid"] == pytest.approx(inline) or put["paid"] > inline
        assert put["flush_activity"] == pytest.approx(put["flush_us"])

    def test_discard_drops_a_flush_in_flight(self):
        db = self.filling_put(bg_threads=1)["db"]
        pending = db.sched.pending_chunks()
        assert db.sched.flush_lane.task is not None
        assert db.sched.discard_inflight() == pending
        assert db.sched.flush_lane.task is None
        assert db.sched.flush_lane.free_at_us <= db.clock.now()
        db.check_invariants()


class TestIdleGate:
    """``_start_rounds`` honours the policy's idle gate like the inline path."""

    @staticmethod
    def settled_db(policy):
        """A loaded store with no round due and every thread idle *now*."""
        db = DB(config=sched_config(), policy=policy)
        write_some(db, 600)
        polls = []
        poll = db.policy.compact_one_tracked
        db.policy.compact_one_tracked = lambda: polls.append(poll()) or polls[-1]
        while not polls or polls[-1]:
            db.get(key_of(0))
            db.sched.drain()
        return db, polls

    def test_idle_read_phase_polls_the_policy_once(self):
        db, polls = self.settled_db("udc")
        db.policy._maintenance_idle = False
        del polls[:]
        for index in range(50):
            db.get(key_of(index))
        assert polls == [False]
        assert db.policy._maintenance_idle

    def test_flush_re_arms_the_poll(self):
        db, polls = self.settled_db("udc")
        assert db.policy._maintenance_idle
        del polls[:]
        db.put(key_of(1), b"v" * 64)  # stays in the memtable: still gated
        db.get(key_of(1))
        assert polls == []
        db.flush()
        assert not db.policy._maintenance_idle
        db.get(key_of(2))
        assert len(polls) == 1
        db.check_invariants()

    def test_adaptive_ldc_still_polls_every_operation(self):
        db, polls = self.settled_db(get_spec("ldc").derive(adaptive=True))
        del polls[:]
        for index in range(50):
            db.get(key_of(index))
        # Each no-work poll sets the gate; the next operation's
        # notification to the adaptive controller clears it again.
        assert polls == [False] * 50


class TestDiscard:
    def test_discard_clears_all_inflight_state(self):
        db = DB(config=sched_config(bg_threads=1))
        count = 0
        while not db.sched.in_flight:
            write_some(db, 50, seed=count)
            count += 1
            assert count < 100, "workload never left work in flight"
        dropped = db.sched.discard_inflight()
        assert dropped > 0
        assert db.sched.pending_chunks() == 0
        assert not db.sched.in_flight
        now = db.clock.now()
        assert db.sched.channel.busy_until_us <= now
        assert all(t.free_at_us <= now for t in db.sched.threads)
        assert db.registry.counter("sched.chunks_discarded") == dropped
        db.check_invariants()

    def test_discard_when_idle_is_noop(self):
        db = DB(config=sched_config(bg_threads=1))
        assert db.sched.discard_inflight() == 0
        assert db.registry.counter("sched.chunks_discarded") == 0


class TestThrottling:
    def test_slowdown_metrics_fire_under_pressure(self):
        config = sched_config(
            bg_threads=1,
            l0_compaction_trigger=2,
            l0_slowdown_trigger=3,
            l0_stop_trigger=5,
        )
        db = DB(config=config)
        write_some(db, 1200)
        counter = db.registry.counter
        assert counter("sched.slowdown_events") > 0
        assert counter("sched.slowdown_time_us") == pytest.approx(
            counter("sched.slowdown_events") * config.l0_slowdown_delay_us
        )
        # Engine-level stall accounting mirrors the sched.* breakdown.
        total = (
            counter("sched.slowdown_time_us") + counter("sched.stall_time_us")
        )
        assert db.metrics().get("engine.stall_time_us") == pytest.approx(total)

    def test_stop_stall_converges_and_is_counted(self):
        config = sched_config(
            bg_threads=1,
            l0_compaction_trigger=2,
            l0_slowdown_trigger=2,
            l0_stop_trigger=3,
        )
        db = DB(config=config)
        write_some(db, 1200)
        counter = db.registry.counter
        assert counter("sched.stall_events") > 0
        assert counter("sched.stall_time_us") > 0
        # After every stall the write proceeded with L0 under the stop cap.
        assert len(db.version.levels[0]) < 100
        db.sched.drain()
        db.check_invariants()

    def test_synchronous_engine_takes_the_same_routine_without_sched_counters(self):
        """``bg_threads=0`` runs the one ``_maybe_stall``: same engine stall
        counters and ``EV_STALL`` reasons, no ``sched.*`` breakdown, and a
        stop — an inline drain, already charged as compaction — is not
        charged again as write time (activity still sums to the clock)."""
        ring = RingBufferSink()
        db = DB(config=sched_config(bg_threads=0),
                tracer=Tracer([ring], kinds=[EV_STALL]))
        db._l0_slowdown, db._l0_stop = 1, 2  # the inline engine never gets there
        write_some(db, 1200)
        reasons = {event.fields["reason"] for event in ring.events}
        assert reasons == {"l0_slowdown", "l0_stop"}
        snap = db.metrics()
        assert snap["engine.stall_events"] == len(ring.events)
        assert snap["engine.stall_time_us"] == pytest.approx(
            sum(event.fields["duration_us"] for event in ring.events)
        )
        assert not snap.component("sched")
        assert sum(snap.component("engine.activity").values()) == pytest.approx(
            db.clock.now()
        )

    def test_no_stall_metrics_below_slowdown(self):
        """L0 never crossing the slowdown trigger means zero throttle time."""
        db = DB(config=sched_config(bg_threads=4))
        for index in range(40):  # a couple of flushes, far below triggers
            db.put(key_of(index), b"v" * 16)
        counter = db.registry.counter
        assert counter("sched.stall_events") == 0
        assert counter("sched.slowdown_events") == 0
        assert db.metrics().get("engine.stall_time_us") == 0


class TestDeterminism:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_identical_runs_bit_identical(self, policy_name):
        def one_run():
            db = DB(config=sched_config(bg_threads=2), policy=policy_name)
            write_some(db, 500)
            db.sched.drain()
            snap = db.metrics()
            return db.clock.now(), dict(snap.counters)

        first = one_run()
        second = one_run()
        assert first == second
