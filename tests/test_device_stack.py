"""One device, one charge path: stages are transparent, hooks see every I/O.

``SimulatedSSD.read`` / ``write`` / ``read_runs`` are the only place an I/O
is priced, charged and counted; a fault plan, the flash layer, the
scheduler's channel and a trace sink are optional stages of that routine.
Three things follow, and are pinned here:

* **Transparency.**  Mounting an *empty* fault plan and/or a trace sink on
  any base stack — bare, flash, scheduler, both — changes nothing a run can
  observe: the closing clock, every registry counter (key set and values)
  and the per-operation latency list are identical.  (When stages were
  wrappers over guard-selected twins, the scan x small-cache x empty-plan
  cells differed: the verifying twin installed a run's blocks after the
  read, the plain twin when the probe missed.)
* **GC relocations pass the fault hooks by re-entry**, so a crash point can
  land inside one without the FTL knowing about fault plans.
* **``read_runs`` is the ``read`` sequence**, hook for hook: same I/O and
  category counts, same crash index, same partial counters, and it stops
  after a run a corruption landed on.
"""

import random

import pytest

from repro import DB, DeviceConfig, FlashSpec, RingBufferSink, SimulatedSSD, Tracer
from repro.errors import CorruptionError, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.lsm.config import LSMConfig
from repro.ssd.metrics import COMPACTION_READ, GC_READ, GC_WRITE, USER_SCAN
from repro.ssd.profile import ENTERPRISE_PCIE

KIB = 1024
POLICIES = ("udc", "ldc", "tiered")
CACHE_BYTES = (0, 8 * KIB, 64 * KIB, 4 * KIB * KIB)
BASE_STACKS = ("bare", "flash", "sched", "flash+sched")
#: What is mounted on top of a base stack; the first is the reference.
OVERLAYS = ((), ("plan",), ("tracer",), ("plan", "tracer"))

#: Erase blocks of eight files over a capacity the store nearly fills, so
#: the mix below relocates live pages (GC passes the hooks too).
FLASH = FlashSpec(page_bytes=512, pages_per_block=64, logical_bytes=160 * KIB)

KEYS = 1_500
OPERATIONS = 2_000


def small(cache_bytes: int, bg_threads: int = 0) -> LSMConfig:
    """~100-byte records in 512-byte blocks: the mix flushes ~40 times."""
    return LSMConfig(
        memtable_bytes=4 * KIB,
        sstable_target_bytes=4 * KIB,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=16 * KIB,
        max_levels=6,
        block_cache_bytes=cache_bytes,
        bg_threads=bg_threads,
    )


def make_key(index: int) -> bytes:
    return b"%08d" % index


def build(policy: str, cache_bytes: int, base: str, overlay=()) -> DB:
    return DB(
        config=small(cache_bytes, bg_threads=1 if "sched" in base else 0),
        policy=policy,
        profile=DeviceConfig(flash=FLASH) if "flash" in base else ENTERPRISE_PCIE,
        fault_plan=FaultPlan() if "plan" in overlay else None,
        tracer=Tracer([RingBufferSink()]) if "tracer" in overlay else None,
    )


def run_mix(db: DB, operations: int = OPERATIONS, seed: int = 17) -> list:
    """60% put / 5% delete / 20% get / 15% scan of 5-200; per-op latencies."""
    rng = random.Random(seed)
    clock = db.clock
    latencies = []
    for index in range(operations):
        key = make_key(rng.randrange(KEYS))
        roll = rng.random()
        begin = clock.now()
        if roll < 0.60:
            db.put(key, b"v%06d" % index + b"x" * rng.randrange(40, 90))
        elif roll < 0.65:
            db.delete(key)
        elif roll < 0.85:
            db.get(key)
        else:
            db.scan(key, rng.randrange(5, 201))
        latencies.append(clock.now() - begin)
    return latencies


def outcome(db: DB, latencies: list) -> tuple:
    return db.clock.now(), db.registry.counters(), latencies


@pytest.mark.parametrize("base", BASE_STACKS)
@pytest.mark.parametrize("cache_bytes", CACHE_BYTES)
@pytest.mark.parametrize("policy", POLICIES)
def test_empty_plan_and_trace_sink_are_transparent(policy, cache_bytes, base):
    reference = None
    for overlay in OVERLAYS:
        db = build(policy, cache_bytes, base, overlay)
        assert type(db.device) is SimulatedSSD
        assert (db.device.faults is not None) == ("plan" in overlay)
        assert (db.device.flash is not None) == ("flash" in base)
        assert (db.device.channel is not None) == ("sched" in base)
        got = outcome(db, run_mix(db))
        db.check_invariants()
        if reference is None:
            reference = got
            counters = got[1]
            assert counters["engine.flush_count"] > 20
            assert counters["engine.compaction_count"] >= 8
            assert counters[f"device.read.{USER_SCAN}.ops"] > 0
            if "flash" in base:
                assert counters["flash.gc_pages_relocated"] > 0
            continue
        assert got[0] == reference[0], overlay
        assert got[1] == reference[1], overlay
        assert got[2] == reference[2], overlay
        if "plan" in overlay:
            # The stage saw every charged request, GC relocations included.
            device_ops = sum(
                value
                for key, value in got[1].items()
                if key.startswith("device.") and key.endswith(".ops")
            )
            assert db.device.faults.io_count == device_ops


@pytest.mark.parametrize("cache_bytes", (8 * KIB, 64 * KIB))
@pytest.mark.parametrize("policy", POLICIES)
def test_corrupt_scan_run_is_detected_and_leaves_no_block_resident(policy, cache_bytes):
    db = build(policy, cache_bytes, "bare", ("plan",))
    run_mix(db)
    faults = db.device.faults
    rng = random.Random(3)
    detected = 0
    for _ in range(40):
        # One of the scan's first three device reads delivers flipped bits
        # (a scan that needs fewer leaves it armed for a later one).
        faults.corrupt_read(faults.read_count + 1 + rng.randrange(3))
        try:
            db.scan(make_key(rng.randrange(KEYS)), 150)
        except CorruptionError as error:
            detected += 1
            # "file N block(s) [a, b, ...] failed CRC verification: ..."
            message = str(error)
            file_id = int(message.split()[1])
            failed = message[message.index("[") + 1 : message.index("]")].split(",")
            resident = set(db.block_cache.cached_blocks())
            assert not resident & {(file_id, int(block)) for block in failed}
        db.check_invariants()
    assert detected >= 20
    assert db.registry.counter("faults.corruptions_detected") == detected
    assert db.registry.counter("faults.corrupted_blocks") == detected
    assert db.registry.counter("faults.corruptions_missed") == 0


class TestCrashInsideGCRelocation:
    """GC charges by re-entering ``read`` / ``write``, hooks included."""

    @pytest.mark.parametrize("category", (GC_READ, GC_WRITE))
    def test_armed_crash_fires_inside_a_relocation(self, category):
        plan = FaultPlan().crash_at(2, category=category)
        db = DB(
            config=small(0),
            policy="ldc",
            profile=DeviceConfig(flash=FLASH),
            fault_plan=plan,
        )
        with pytest.raises(SimulatedCrash) as crash:
            run_mix(db)
        assert crash.value.category == category
        faults = db.device.faults
        assert faults.category_counts[category] == 2
        assert crash.value.io_index == faults.io_count
        assert db.registry.counter("faults.crashes_injected") == 1
        # Crash-before-charge: the second relocation of this kind never ran.
        direction = "read" if category == GC_READ else "write"
        assert db.registry.counter(f"device.{direction}.{category}.ops") == 1
        # Relocation I/O is charged before any mapping mutation.
        db.device.flash.check_invariants()
        db.crash_and_recover()
        db.check_invariants()
        run_mix(db, operations=300, seed=4)  # the disarmed plan lets it go on
        db.check_invariants()


class TestReadRunsIsTheReadSequence:
    RUNS = [4096, 512, 0, 8192, 1024]

    @staticmethod
    def device(plan: FaultPlan) -> SimulatedSSD:
        return SimulatedSSD(ENTERPRISE_PCIE, fault_plan=plan)

    def both(self, make_plan):
        """(batched device, outcome) and (per-read device, outcome)."""
        results = []
        for batched in (True, False):
            device = self.device(make_plan())
            device.read(100, USER_SCAN)  # the batch does not start at I/O #1
            try:
                if batched:
                    outcome = device.read_runs(
                        self.RUNS, COMPACTION_READ, sequential=True
                    )
                else:
                    outcome = 0
                    for nbytes in self.RUNS:
                        device.read(nbytes, COMPACTION_READ, sequential=True)
                        outcome += 1
                        if device.faults._pending_mask:
                            break
            except SimulatedCrash as crash:
                outcome = ("crash", crash.io_index, crash.category)
            results.append((device, outcome))
        return results

    @staticmethod
    def state(device: SimulatedSSD) -> tuple:
        faults = device.faults
        return (
            device.clock.now(),
            device.registry.counters(),
            faults.io_count,
            faults.read_count,
            faults.category_counts,
        )

    def test_clean_batch(self):
        (batched, charged), (looped, reads) = self.both(FaultPlan)
        assert charged == reads == len(self.RUNS)
        assert self.state(batched) == self.state(looped)
        plain = SimulatedSSD(ENTERPRISE_PCIE)
        plain.read(100, USER_SCAN)
        plain.read_runs(self.RUNS, COMPACTION_READ, sequential=True)
        assert plain.clock.now() == batched.clock.now()
        assert plain.registry.counters() == batched.registry.counters()

    @pytest.mark.parametrize("at_io", (2, 4, 6))
    def test_crash_records_what_was_charged(self, at_io):
        (batched, crash), (looped, loop_crash) = self.both(
            lambda: FaultPlan().crash_at(at_io)
        )
        assert crash == loop_crash == ("crash", at_io, COMPACTION_READ)
        assert self.state(batched) == self.state(looped)
        ops = batched.registry.counter(f"device.read.{COMPACTION_READ}.ops")
        assert ops == at_io - 2  # the runs before the crashed one

    def test_category_crash_index(self):
        (batched, crash), (looped, loop_crash) = self.both(
            lambda: FaultPlan().crash_at(3, category=COMPACTION_READ)
        )
        assert crash == loop_crash == ("crash", 4, COMPACTION_READ)
        assert self.state(batched) == self.state(looped)

    def test_batch_stops_after_a_corrupted_run(self):
        (batched, charged), (looped, reads) = self.both(
            lambda: FaultPlan().corrupt_read(3, mask=0xF0)
        )
        assert charged == reads == 2  # read #3 overall is the batch's second run
        assert self.state(batched) == self.state(looped)
        assert batched.consume_read_corruption() == 0xF0
        assert batched.registry.counter("faults.corruptions_missed") == 0


class TestCorruptCompactionInput:
    """The corrupted input is the one the error names, and the last one charged."""

    @staticmethod
    def compaction_read(db: DB, field: str):
        return db.registry.counter(f"device.read.{COMPACTION_READ}.{field}")

    def arm_second_read(self, db: DB) -> tuple:
        faults = db.device.faults
        faults.corrupt_read(faults.read_count + 2)
        return self.compaction_read(db, "ops"), self.compaction_read(db, "bytes")

    def test_whole_file_inputs(self):
        db = build("udc", 0, "bare", ("plan",))
        run_mix(db, operations=1_200)
        tables = list(db.version.all_tables())[:4]
        assert len(tables) == 4
        ops, nbytes = self.arm_second_read(db)
        with pytest.raises(CorruptionError, match=f"file {tables[1].file_id} "):
            db.policy.read_inputs(tables)
        assert self.compaction_read(db, "ops") == ops + 2
        assert self.compaction_read(db, "bytes") == nbytes + sum(
            table.data_size for table in tables[:2]
        )
        assert db.registry.counter("faults.corruptions_detected") == 1
        assert db.registry.counter("faults.corruptions_missed") == 0

    def test_ldc_merge_of_a_file_and_its_slices(self):
        db = build("ldc", 0, "bare", ("plan",))
        run_mix(db, operations=1_200)
        target = next(
            table for table in db.version.all_tables() if len(table.slice_links) >= 2
        )
        first = target.slice_links[0]
        ops, nbytes = self.arm_second_read(db)
        with pytest.raises(CorruptionError, match=f"file {first.source.file_id} "):
            db.policy.movement.merge(target)
        assert self.compaction_read(db, "ops") == ops + 2
        assert self.compaction_read(db, "bytes") == (
            nbytes + target.data_size + first.read_block_bytes()
        )
        assert db.registry.counter("faults.corruptions_detected") == 1
        assert db.registry.counter("faults.corruptions_missed") == 0
