"""One maintenance engine: ``bg_threads=0`` is the engine with no thread.

Every compaction round a store runs starts in one routine,
``MaintenanceEngine._capture_round``, under a clock capture.  With no
background thread the captured ``(kind, duration, bytes)`` items are added
back onto the foreground clock at once, in capture order: the float
additions inline charging made.  The pins here (``tests/pins.json``,
``maintenance_engine/...``) were computed by the inline engine this
replaced, so they hold zero threads to its timing bit for bit:

* :class:`TestZeroThreadPins` — stores driven through Level-0 slowdowns
  and stop stalls (the stop stall is the foreground drain): every counter,
  the clock, and the order and payloads of every trace event;
* :class:`TestFaultInsideASynchronousRound` — a crash point and a
  scheduled corruption on I/O inside a compaction round, for UDC and LDC
  on the plain and the flash device: the time the round charged before
  the fault stays charged, and the store goes on as before;
* :class:`TestRoundDurations` — ``compaction_round.duration_us`` is the
  inline charge with no thread, and the round's captured debt with one.
"""

import random
import sys

import pytest

from repro import DB, RingBufferSink, Tracer
from repro.errors import CorruptionError, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.lsm.config import LSMConfig
from repro.obs.events import (
    EV_COMPACTION_ROUND,
    EV_DEVICE_READ,
    EV_SCHED_TASK,
)
from repro.ssd.flash import DeviceConfig, FlashSpec
from repro.ssd.metrics import COMPACTION_READ, COMPACTION_WRITE
from repro.ssd.profile import ENTERPRISE_PCIE

from .pins import check

KIB = 1024
POLICIES = ("udc", "ldc")
DEVICES = ("plain", "flash")
FLASH = FlashSpec(page_bytes=512, pages_per_block=64, logical_bytes=160 * KIB)
FAULTS = [
    (fault, policy, device)
    for fault in ("crash", "corruption") for policy in POLICIES for device in DEVICES
]
PIN_CASES = [
    *(f"maintenance_engine/zero_thread/{policy}" for policy in POLICIES),
    *(f"maintenance_engine/fault/{fault}-{policy}-{device}"
      for fault, policy, device in FAULTS),
    *(f"maintenance_engine/round_durations/{policy}" for policy in POLICIES),
]


def tiny(bg_threads: int = 0) -> LSMConfig:
    """~80-byte records in 512-byte blocks: compacts within a few hundred puts."""
    return LSMConfig(
        memtable_bytes=2 * KIB,
        sstable_target_bytes=2 * KIB,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=4 * KIB,
        max_levels=6,
        bg_threads=bg_threads,
    )


def store(policy: str, device: str = "plain", bg_threads: int = 0, **kwargs) -> DB:
    profile = DeviceConfig(flash=FLASH) if device == "flash" else ENTERPRISE_PCIE
    return DB(config=tiny(bg_threads), policy=policy, profile=profile, **kwargs)


def drive(db: DB, puts: int, seed: int = 7) -> None:
    """``puts`` overwrites over 400 keys, with a get after every fourth."""
    rng = random.Random(seed)
    for index in range(puts):
        key = b"%012d" % rng.randrange(400)
        db.put(key, b"v" * 64)
        if index % 4 == 3:
            db.get(key)


def state(db: DB, events=()) -> tuple:
    """The clock, every counter and gauge, and the events' kinds and payloads."""
    return (
        db.clock.now(),
        sorted(db.registry.counters().items()),
        sorted(db.registry.gauges().items()),
        [(event.kind, sorted(event.fields.items())) for event in events],
    )


class TestZeroThreadPins:
    """Inline rounds, foreground stop-stall drains and the trace they leave."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_stalled_store_is_what_the_inline_engine_computed(self, policy):
        ring = RingBufferSink()
        db = store(policy, tracer=Tracer([ring]))
        # The inline engine keeps Level 0 short; lowered triggers make it
        # stall and drain in the foreground.
        db._l0_slowdown, db._l0_stop = 1, 2
        drive(db, 1_200)
        db.close()
        assert db.registry.counter("engine.stall_events") > 0
        assert not db.metrics().component("sched")
        check(f"maintenance_engine/zero_thread/{policy}", state(db, ring.events),
              elapsed_us=db.clock.now(), write_amp=db.metrics().write_amplification)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_runs_no_scheduler_code(self, policy):
        """Rounds, stop stalls, a scan, invariants and close call nothing
        under ``repro/sched/`` (the benchmark's zero-thread workloads
        assert ``sched.calls_per_op == 0``)."""
        db = store(policy)
        db._l0_slowdown, db._l0_stop = 1, 2
        called = set()

        def note(frame, event, _arg):
            if event == "call":
                called.add(frame.f_code.co_filename.replace("\\", "/"))

        sys.setprofile(note)
        try:
            drive(db, 600)
            db.scan(b"0", 10)
            db.check_invariants()
            db.close()
        finally:
            sys.setprofile(None)
        assert db.registry.counter("engine.compaction_count") > 0
        assert db.registry.counter("engine.stall_events") > 0
        assert not [path for path in called if "/repro/sched/" in path]


def compaction_read_index(policy: str, device: str, nth: int) -> int:
    """The device-read index of the ``nth`` compaction read of :func:`drive`."""
    ring = RingBufferSink()
    db = store(policy, device, tracer=Tracer([ring], kinds=[EV_DEVICE_READ]))
    drive(db, 1_000)
    categories = [event.fields["category"] for event in ring.events]
    return [
        index for index, category in enumerate(categories, 1)
        if category == COMPACTION_READ
    ][nth - 1]


class TestFaultInsideASynchronousRound:
    """A fault inside a zero-thread round keeps the time the round charged.

    The crash fires at the eighth compaction write, after the round's
    reads and merge (and any earlier output) were charged; the corruption
    lands on the fifth compaction read.  Each pin is the state right after the
    fault and after the store went on (recovered, for the crash) for 300
    more puts.
    """

    @staticmethod
    def run(fault: str, policy: str, device: str) -> tuple:
        if fault == "crash":
            plan = FaultPlan().crash_at(8, category=COMPACTION_WRITE)
            raised = SimulatedCrash
        else:
            plan = FaultPlan().corrupt_read(compaction_read_index(policy, device, 5))
            raised = CorruptionError
        db = store(policy, device, fault_plan=plan)
        with pytest.raises(raised):
            drive(db, 1_000)
        if fault == "crash":
            assert db.registry.counter("faults.crashes_injected") == 1
        else:
            assert plan.pending_corruptions == 0
        at_fault = state(db)
        if fault == "crash":
            db.crash_and_recover()
        drive(db, 300, seed=8)
        db.check_invariants()
        return (at_fault, state(db)), db

    @pytest.mark.parametrize("fault, policy, device", FAULTS)
    def test_state_is_what_the_inline_engine_left(self, fault, policy, device):
        states, db = self.run(fault, policy, device)
        check(f"maintenance_engine/fault/{fault}-{policy}-{device}", states,
              elapsed_us=db.clock.now(), write_amp=db.metrics().write_amplification)


class TestRoundDurations:
    """One place computes a round's time, whoever pays it."""

    @staticmethod
    def events(policy: str, bg_threads: int) -> list:
        ring = RingBufferSink()
        db = store(
            policy, bg_threads=bg_threads,
            tracer=Tracer([ring], kinds=[EV_COMPACTION_ROUND, EV_SCHED_TASK]),
        )
        drive(db, 1_200)
        db.close()
        return ring.events

    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_threads_time_the_inline_charge(self, policy):
        durations = [event.fields["duration_us"] for event in self.events(policy, 0)]
        assert all(duration > 0 for duration in durations)
        check(f"maintenance_engine/round_durations/{policy}", durations)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_background_threads_time_the_captured_debt(self, policy):
        """Each round is followed by its task, whose debt is the round's time."""
        events = self.events(policy, 1)
        rounds = [
            (event, events[index + 1])
            for index, event in enumerate(events)
            if event.kind == EV_COMPACTION_ROUND
        ]
        assert len(rounds) > 10
        for event, task in rounds:
            assert task.kind == EV_SCHED_TASK
            assert event.fields["duration_us"] > 0
            assert event.fields["duration_us"] == pytest.approx(
                task.fields["debt_us"], rel=1e-9
            )
