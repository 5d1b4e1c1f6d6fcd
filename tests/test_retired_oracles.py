"""Frozen answers of seven replaced routines.

Each replacement below was pair-run against the routine it replaced (kept
under ``tests/`` as a reference) until both had gone unedited long enough
for the pair to retire.  Before the references were deleted, each pair's
coverage was frozen here: one seeded corpus per replacement, aimed at the
edges its pair-run targeted, whose answers were pinned in
``tests/pins.json`` while the pair still agreed.  A pinned digest is thus
the replaced routine's answer to the whole corpus.

* ``version`` — :class:`~repro.lsm.version.VersionSet`'s bisecting level
  queries and LDC's slice plan: ``None`` and inverted bounds, keys in the
  gaps, keys equal to a file's ``max_key`` or just past it, empty and
  one-file levels, unsorted (Level 0 and tiered) levels, and link sources
  reaching into the open-ended first and last ranges;
* ``merge`` — the pooled compaction merge: disjoint, run-interleaved,
  fully colliding and mixed streams, 1-12 of them, empty and inner
  ``[start, stop)`` windows, tombstones, variable key widths;
* ``recorder`` — the lazily folded latency recorder, histogram and
  timeline: every sampling mode, chunkings, ``merge_from``, queries
  mid-stream, fold watermarks from every call to never, exact bucket
  edges and their float neighbours;
* ``bloom`` — the byte-table filter's bits (packed), probes,
  ``size_bytes`` and ``hash_count``: empty and tiny key sets, every
  bits-per-key from 0 to 32 and 200;
* ``flash`` — the FTL programming block runs: every table, counter and
  gauge after each write, stream write and trim, GC relocation, a full
  device and crash points inside GC charges;
* ``runner`` — the chunked measurement loop: every operation kind,
  chunk boundaries, stall attribution with a background thread, sampled
  recorders;
* ``serve`` / ``serve_threaded`` — the one-pass serve loop (against the
  per-request loop it replaced, over the chunk replay of
  ``tests/_pump_oracle.py`` with threads): every throttle x flash x scans
  cell at drawn rates (2k-80k ops/s), queue depths (1-12), read-modify-
  write strides, seeds and SLOs, with zero threads and with one and
  three, plus write bursts that fill the queue and back-pressure at
  slowdown and stop; each answer includes the store's contents, which
  the pair-run did not compare.  The threaded runs are a case of their
  own, so a change to the background replay re-pins that case alone.

Re-pin on purpose with ``PYTHONPATH=src python -m tests.pins --write
"<reason>"``.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import count
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro import DeviceConfig, FlashSpec, RingBufferSink, SimulatedSSD, Tracer
from repro.core.primitives import LDCLinkMergeMovement
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.harness import latency
from repro.harness.latency import LatencyRecorder, LatencyTimeline
from repro.harness.runner import prepare_db, run_workload
from repro.lsm.bloom import BloomFilter, key_hashes
from repro.lsm.compaction.columnar import merge_windows
from repro.lsm.config import LSMConfig
from repro.lsm.record import delete_record, put_record
from repro.lsm.sstable import SSTable
from repro.lsm.version import VersionSet
from repro.obs.histogram import LatencyHistogram
from repro.serve import ServeSpec, serve_workload
from repro.ssd.metrics import GC_READ, GC_WRITE
from repro.workload.spec import rwb, scn_rwb, wo
from repro.workload.ycsb import OP_PUT, OP_RMW, Operation, WorkloadGenerator

from tests.conftest import with_deletes

from .pins import check, digest


def outcome(call):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call()
    except ReproError as error:
        return type(error).__name__, str(error)


# ----------------------------------------------------------------------
# version: level queries over sorted, unsorted, empty and one-file levels
# ----------------------------------------------------------------------
VERSION_CONFIG = LSMConfig(max_levels=4)
LEVEL = 2
KEY_LIMIT = 150


def key_of(number: int) -> bytes:
    return b"%04d" % number


class Tables:
    """Tables over integer keys, with file ids from one counter."""

    def __init__(self) -> None:
        self.ids = count(1)

    def of(self, numbers) -> SSTable:
        records = [put_record(key_of(n), b"v", n + 1) for n in sorted(set(numbers))]
        return SSTable.from_records(next(self.ids), records, VERSION_CONFIG)

    def sorted_level(self, shape) -> VersionSet:
        """``shape`` as ``(gap, width)`` steps: each file starts ``gap``
        keys after the previous one ends and spans ``width`` more."""
        version = VersionSet(VERSION_CONFIG)
        cursor = 0
        for gap, width in shape:
            version.add_file(LEVEL, self.of([cursor + gap, cursor + gap + width]))
            cursor += gap + width
        return version


def level_ids(version, level: int = LEVEL) -> list:
    return [table.file_id for table in version.files(level)]


def probe_keys(rng, version, level: int = LEVEL) -> list:
    """``None``, every file's bounds and the key just past each, and keys
    on the grid (half of them with a successor byte)."""
    keys = [None]
    for table in version.files(level):
        keys += [table.min_key, table.max_key, table.max_key + b"\x00"]
    keys += [
        key_of(rng.randrange(KEY_LIMIT + 1)) + (b"\x00" if rng.random() < 0.5 else b"")
        for _ in range(6)
    ]
    return keys


def level_query_answers(rng, version, level: int) -> list:
    """Overlap and round-robin answers for ``version``'s ``level``."""
    keys = probe_keys(rng, version, level)
    bounds = [(None, None)] + [
        (rng.choice(keys), rng.choice(keys)) for _ in range(14)
    ]
    answers = [
        ("overlapping", lo, hi,
         [table.file_id for table in version.overlapping(level, lo, hi)])
        for lo, hi in bounds
    ]
    for pointer in keys[:8]:
        if pointer is None:
            version.compact_pointer.pop(level, None)
        else:
            version.compact_pointer[level] = pointer
        picked = outcome(lambda: version.pick_file_round_robin(level).file_id)
        answers.append(("pick", pointer, picked))
    return answers


def version_answers() -> list:
    rng = random.Random(13)
    tables = Tables()
    shapes = [[], [(1, 0)], [(3, 4)], [(1, 0), (1, 0)]] + [
        [(rng.randint(1, 6), rng.randint(0, 5)) for _ in range(rng.randint(2, 16))]
        for _ in range(100)
    ]
    answers = []
    for shape in shapes:
        version = tables.sorted_level(shape)
        answers.append(("level", shape, level_ids(version)))
        answers += level_query_answers(rng, version, LEVEL)
        for _ in range(6):
            # Into a fresh copy of the level: a slot, or the overlap error
            # naming a neighbour, with the level left as it was.
            fresh = tables.sorted_level(shape)
            first, width = rng.randrange(KEY_LIMIT + 1), rng.randrange(13)
            table = tables.of([first, first + width])
            answers.append(("add", first, width,
                            outcome(lambda: fresh.add_file(LEVEL, table)),
                            level_ids(fresh)))
            fresh.check_invariants()
        for resident in version.files(LEVEL):
            fresh = tables.sorted_level(shape)
            target = fresh.files(LEVEL)[version.files(LEVEL).index(resident)]
            fresh.remove_file(LEVEL, target)
            answers.append(("remove", target.file_id, level_ids(fresh)))
            fresh.check_invariants()
            # A stranger with a resident's keys lands on its slot.
            twin = tables.of([int(target.min_key), int(target.max_key)])
            answers.append(("remove twin",
                            outcome(lambda: version.remove_file(LEVEL, twin))))
        stranger = tables.of(rng.sample(range(KEY_LIMIT + 1), 3))
        answers.append(("remove stranger",
                        outcome(lambda: version.remove_file(LEVEL, stranger)),
                        level_ids(version)))
        movement = LDCLinkMergeMovement()
        movement.db = SimpleNamespace(version=version)
        sources = [rng.sample(range(KEY_LIMIT + 1), rng.randint(1, 8))
                   for _ in range(4)]
        if version.files(LEVEL):
            last = int(version.files(LEVEL)[-1].max_key)
            sources.append([0, last // 2, last + 3])
        for numbers in sources:
            plan = movement._slice_plan(tables.of(numbers), LEVEL)
            answers.append(("slice plan", numbers,
                            [(target.file_id, lo, hi) for target, lo, hi in plan]))
    for tiered in (False, True) * 6:
        # Level 0 of a leveled tree, or any level of a tiered one: age order.
        level = LEVEL if tiered else 0
        version = VersionSet(VERSION_CONFIG, sorted_levels=not tiered)
        for _ in range(rng.randint(1, 8)):
            version.add_file(level, tables.of(
                rng.sample(range(KEY_LIMIT + 1), rng.randint(1, 8))))
        answers.append(("unsorted", level, level_ids(version, level)))
        answers += level_query_answers(rng, version, level)
        resident = rng.choice(version.files(level))
        version.remove_file(level, resident)
        answers.append(("remove", resident.file_id, level_ids(version, level)))
        twin = tables.of([int(resident.min_key), int(resident.max_key)])
        answers.append(("remove twin",
                        outcome(lambda: version.remove_file(level, twin))))
    empty = VersionSet(VERSION_CONFIG)
    answers.append(("pick empty", outcome(lambda: empty.pick_file_round_robin(LEVEL))))
    return answers


# ----------------------------------------------------------------------
# merge: pooled compaction merges over windows of every shape
# ----------------------------------------------------------------------
def merge_input(rng) -> list:
    """1-12 windows whose seqs are unique across the input.

    ``disjoint`` gives each stream one contiguous key range, ``runs``
    deals runs of ``run`` consecutive keys round-robin, ``colliding``
    gives every stream every key and ``mixed`` draws each stream's keys
    from a shared universe; a stream may be empty, and a window may view
    only an inner ``[start, stop)`` of it.
    """
    nstreams = rng.randint(1, 12)
    shape = rng.choice(["disjoint", "runs", "colliding", "mixed"])
    universe = rng.randint(1, 240)
    width = rng.randint(1, 6)
    run = rng.randint(1, 40)
    names = sorted(
        b"%0*d" % (width, index) + b"k" * (index % 3) for index in range(universe)
    )
    seqs = list(range(1, nstreams * universe + 1))
    rng.shuffle(seqs)
    per_stream = -(-universe // nstreams)
    windows = []
    for stream in range(nstreams):
        if shape == "colliding":
            chosen = range(universe)
        elif shape == "disjoint":
            chosen = range(
                stream * per_stream, min(universe, (stream + 1) * per_stream)
            )
        elif shape == "runs":
            chosen = [
                index for index in range(universe)
                if index // run % nstreams == stream
            ]
        else:
            chosen = sorted(rng.sample(range(universe), rng.randrange(universe + 1)))
        records = [
            delete_record(names[index], seqs.pop())
            if rng.random() < 0.15
            else put_record(names[index], rng.randbytes(rng.randrange(10)), seqs.pop())
            for index in chosen
        ]
        start, stop = 0, len(records)
        if rng.random() < 0.5:
            start = rng.randint(0, stop)
            stop = rng.randint(start, stop)
        windows.append(([record.key for record in records], records, start, stop))
    return windows


def merge_answers() -> list:
    rng = random.Random(20)
    answers = []
    for _ in range(300):
        windows = merge_input(rng)
        merged = merge_windows(windows)
        shuffled = list(windows)
        rng.shuffle(shuffled)
        assert merge_windows(shuffled) == merged  # window order does not matter
        answers.append(merged)
    return answers


# ----------------------------------------------------------------------
# recorder: folded recorders, histograms and timelines
# ----------------------------------------------------------------------
GROWTH, MIN_US = 1.05, 0.5
#: Exact bucket edges ``MIN_US * GROWTH**k`` and their float neighbours.
EDGE_VALUES = [0.0, MIN_US] + [
    float(value)
    for edge in (MIN_US * GROWTH ** k for k in range(420))
    for value in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf))
]
PERCENTILES = (0.01, 1.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0)
SAMPLING = [(1, None), (3, None), (1, 7), (4, 30), (7, 1), (2, 12)]


def latency_value(rng) -> float:
    pick = rng.random()
    if pick < 0.4:
        return rng.choice(EDGE_VALUES)
    if pick < 0.7:
        return rng.uniform(0.0, 1e9)
    if pick < 0.85:
        return 10.0 ** rng.uniform(-3, 7)
    return rng.choice([10.712, 55.012, 1.0])


def latency_chunk(rng) -> list:
    return [latency_value(rng) for _ in range(rng.randrange(41))]


def recorder_state(recorder) -> tuple:
    state = (list(recorder.values), len(recorder), recorder.sample_count,
             recorder.is_sampled, recorder.histogram.to_dict())
    if len(recorder):
        state += (recorder.mean(), recorder.minimum(), recorder.maximum(),
                  recorder.percentiles(PERCENTILES),
                  recorder.histogram.percentiles(PERCENTILES))
    return state


def recorder_programme(rng, sampling) -> list:
    """Chunks, single samples, mid-stream queries and merges, in order."""
    recorder = LatencyRecorder(*sampling)
    states = []
    for _ in range(rng.randrange(31)):
        step = rng.choice(["many", "one", "query", "merge"])
        if step == "many":
            recorder.record_many(latency_chunk(rng))
        elif step == "one":
            recorder.record(latency_value(rng))
        elif step == "query":
            states.append(recorder_state(recorder))
        else:
            other = LatencyRecorder(*rng.choice(SAMPLING))
            chunk = latency_chunk(rng)
            other.record_many(chunk[: len(chunk) // 2])
            other.record_many(chunk[len(chunk) // 2:])
            recorder.merge_from(other)
    states.append(recorder_state(recorder))
    return states


def recorder_answers() -> list:
    rng = random.Random(23)
    answers = []
    for watermark in (1, 5, 64, 1 << 16):
        with mock.patch.object(latency, "FOLD_WATERMARK", watermark):
            for sampling in SAMPLING * 6:
                answers.append(recorder_programme(rng, sampling))
    # No patching: 3 x 40k samples cross the real watermark mid-stream.
    exact, sampled = LatencyRecorder(), LatencyRecorder(3, 5_000)
    for _ in range(3):
        chunk = [rng.expovariate(1 / 40.0) + 10.712 for _ in range(40_000)]
        chunk[::7] = [10.712] * len(chunk[::7])
        exact.record_many(chunk)
        sampled.record_many(chunk)
    answers.append([digest(recorder_state(exact)), recorder_state(sampled)])
    for geometry in [(1.05, 0.5), (1.01, 1.0), (2.0, 0.001)] * 3:
        histogram = LatencyHistogram(*geometry)
        scale = rng.choice([1.0, 1e-3, 1e3])
        for _ in range(rng.randrange(9)):
            batch = [value * scale for value in latency_chunk(rng)]
            histogram.record_many(batch)
            for value in batch[:3]:
                histogram.record(value)
        answers.append(histogram.to_dict())
    edges = LatencyHistogram(GROWTH, MIN_US)
    edges.record_many(EDGE_VALUES)
    answers.append(edges.to_dict())
    for bucket_us in (0.1, 1.0, 7.5, 1_000_000.0) * 4:
        now, stamped = 0.0, []
        for _ in range(rng.randrange(81)):
            now += rng.uniform(0.0, 3.0)
            stall = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 1e4)
            stamped.append((now, rng.uniform(0.0, 1e6), stall))
        timeline = LatencyTimeline(bucket_us)
        cuts = sorted({0, len(stamped), *(rng.randrange(len(stamped) + 1)
                                          for _ in range(rng.randrange(7)))})
        singles = rng.random() < 0.5
        for lo, hi in zip(cuts, cuts[1:]):
            chunk = stamped[lo:hi]
            if singles and len(chunk) == 1:
                timeline.record(chunk[0][0], chunk[0][1], stall_us=chunk[0][2])
            else:
                timeline.record_many(chunk)
        answers.append((timeline.points(), timeline._stalls))
    return answers


# ----------------------------------------------------------------------
# bloom: bits, probes and sizes from empty sets to 300 keys
# ----------------------------------------------------------------------
def packed(bloom: BloomFilter) -> bytes:
    """The filter's bits packed little-endian, eight to a byte."""
    return np.packbits(np.frombuffer(bloom._flags, np.uint8), bitorder="little").tobytes()


def random_key(rng) -> bytes:
    return rng.randbytes(rng.randint(1, 16))


def bloom_answers() -> list:
    rng = random.Random(25)
    cases = [
        (set(), 10), ({b"a"}, 0), ({b"a"}, 1),
        ({b"k%d" % i for i in range(7)}, 10), ({b"k%d" % i for i in range(8)}, 10),
        ({b"k%03d" % i for i in range(120)}, 200),
    ]
    cases += [({random_key(rng) for _ in range(rng.randrange(301))}, bits)
              for bits in range(33)]
    cases += [({random_key(rng) for _ in range(rng.randrange(13))}, bits)
              for bits in range(33)]
    cases += [({random_key(rng) for _ in range(rng.randint(1, 40))}, 200)
              for _ in range(8)]
    answers = []
    for key_set, bits_per_key in cases:
        members = sorted(key_set)
        bloom = BloomFilter(members, bits_per_key)
        probes = members + [random_key(rng) for _ in range(60)]
        hits = [bloom.may_contain(key) for key in probes]
        assert hits == [bloom.may_contain(key, key_hashes(key)) for key in probes]
        answers.append((bloom.size_bytes, bloom.hash_count, packed(bloom), hits))
    return answers


# ----------------------------------------------------------------------
# flash: the FTL's state after every step, GC and crashes included
# ----------------------------------------------------------------------
TINY = FlashSpec(page_bytes=256, pages_per_block=4, logical_bytes=8 * 1024,
                 over_provisioning=0.25, gc_reserve_blocks=2)


def new_device(spec: FlashSpec, plan) -> SimulatedSSD:
    return SimulatedSSD(DeviceConfig(flash=spec), fault_plan=plan)


def ftl_state(flash) -> tuple:
    """Everything the FTL holds."""
    registry = flash.device.registry
    return (
        list(flash.page_owner),
        {owner: list(pages) for owner, pages in flash.owner_pages.items()},
        list(flash._valid),
        list(flash._written),
        list(flash._stamp),
        list(flash.erase_counts),
        list(flash._free),
        flash._host_block, flash._host_used,
        flash._gc_block, flash._gc_used,
        flash._program_counter,
        dict(flash._stream_pending),
        flash.live_pages, flash.stream_pending_bytes,
        flash.bytes_programmed, flash.blocks_erased,
        list(registry.counters().items()),  # insertion order too
        list(registry.gauges().items()),
        flash.device.clock.now(),
    )


def ftl_step(device, kind, owner, nbytes):
    try:
        if kind == "write":
            device.write(nbytes, "flush_write", sequential=True, owner=owner)
        elif kind == "stream":
            device.write(nbytes, "wal_write", sequential=True,
                         owner=("wal", owner), stream=True)
        else:
            device.trim(owner)
    except ReproError as error:  # a full device, an injected crash
        return type(error).__name__, str(error)
    return None


def ftl_run(device, schedule) -> list:
    """Each step's outcome and the digest of the FTL state after it."""
    return [(ftl_step(device, *step), digest(ftl_state(device.flash)))
            for step in schedule]


def flash_answers() -> list:
    rng = random.Random(29)
    answers = []
    for _ in range(150):
        schedule = []
        for _ in range(rng.randint(1, 60)):
            kind = rng.choice(["write", "stream", "trim"])
            if kind == "write":
                schedule.append((kind, rng.randint(0, 5),
                                 rng.randint(1, 24 * TINY.page_bytes)))
            elif kind == "stream":
                schedule.append((kind, rng.randint(0, 1),
                                 rng.randint(1, 3 * TINY.page_bytes)))
            else:
                schedule.append((kind, rng.randint(0, 5), 0))
        spec = replace(TINY, gc_policy=rng.choice(("greedy", "cost_benefit")))
        plan = None
        if rng.random() < 0.5:
            plan = FaultPlan().crash_at(rng.randint(1, 6),
                                        category=rng.choice((GC_READ, GC_WRITE)))
        answers.append(ftl_run(new_device(spec, plan), schedule))
    # Churn that keeps seven five-page owners live on a 48-page device:
    # GC relocates, crashes at its second write, and at times finds
    # nothing to reclaim.
    schedule = []
    for n in range(40):
        schedule.append(("write", n, 5 * TINY.page_bytes))
        if n >= 7:
            schedule.append(("trim", n - 7, 0))
    device = new_device(TINY, FaultPlan().crash_at(2, category=GC_WRITE))
    churn = ftl_run(device, schedule)
    assert device.registry.counter("flash.gc_pages_relocated") > 0
    assert {step[0][0] for step in churn if step[0]} == {
        "SimulatedCrash", "FlashFullError"}
    answers.append(churn)
    return answers


# ----------------------------------------------------------------------
# runner: the chunked measurement loop over every operation kind
# ----------------------------------------------------------------------
def mixed_operations(spec, rng) -> list:
    """Every tenth put a delete, then a seeded fifth of the remaining puts
    read-modify-writes (half of them with no value of their own)."""
    return [
        Operation(OP_RMW, op.key, op.value if rng.random() < 0.5 else None)
        if op.kind == OP_PUT and rng.random() < 0.2 else op
        for op in with_deletes(WorkloadGenerator(spec).operations(), 10)
    ]


def runner_answers() -> list:
    rng = random.Random(15)
    throttled = LSMConfig(memtable_bytes=4096, sstable_target_bytes=4096,
                          block_bytes=512, l0_compaction_trigger=2,
                          l0_slowdown_trigger=3, l0_stop_trigger=5,
                          bg_threads=1)
    runs = [
        (rwb(num_operations=1_500, key_space=700), "udc", LSMConfig(), None, (1, None)),
        (rwb(num_operations=1_500, key_space=700), "ldc", LSMConfig(), None, (1, None)),
        (scn_rwb(num_operations=2_200, key_space=600, scan_length=12, seed=4),
         "ldc", throttled, rng, (1, None)),
        (scn_rwb(num_operations=1_300, key_space=400, scan_length=5, seed=9),
         "udc", LSMConfig(bg_threads=1), rng, (3, 200)),
    ]
    answers = []
    for spec, policy, config, mixing, sampling in runs:
        result = run_workload(
            spec, policy, config=config,
            operations=None if mixing is None else mixed_operations(spec, mixing),
            sample_stride=sampling[0], max_latency_samples=sampling[1],
            timeline_bucket_us=2_000.0,
        )
        answers.append((
            result.fingerprint(),
            [recorder_state(recorder) for recorder in (
                result.write_latencies, result.read_latencies,
                result.scan_latencies)],
            result.timeline._stalls,
        ))
    return answers


# ----------------------------------------------------------------------
# serve: the one-pass serve loop over rates, depths, throttling and flash
# ----------------------------------------------------------------------
SERVE_FLASH = FlashSpec(page_bytes=512, pages_per_block=8, logical_bytes=1 << 20)


def serve_config(bg_threads: int, throttle: bool) -> LSMConfig:
    """A tiny tree; with ``throttle`` Level 0 slows down at 3 files and
    stops at 5, so admission back-pressures at both states."""
    triggers = (
        dict(l0_compaction_trigger=2, l0_slowdown_trigger=3, l0_stop_trigger=5)
        if throttle else {}
    )
    return LSMConfig(
        memtable_bytes=2048, sstable_target_bytes=2048, block_bytes=512,
        fan_out=4, level1_capacity_bytes=4096, max_levels=6,
        bg_threads=bg_threads, **triggers,
    )


def serve_operations(spec, rmw_every: int) -> list:
    """The spec's stream with every tenth put made a delete, then every
    ``rmw_every``-th operation that is still a put a read-modify-write."""
    ops = with_deletes(WorkloadGenerator(spec).operations(), 10)
    if rmw_every:
        ops = [
            Operation(OP_RMW, op.key, op.value if n % 2 else None)
            if op.kind == OP_PUT and not n % rmw_every else op
            for n, op in enumerate(ops)
        ]
    return ops


def serve_outcome(result, sink, db) -> tuple:
    """What a serve run computed: the result, its recorders, the trace and
    the store's contents."""

    def recorder(rec):
        hist = rec.histogram
        return (list(rec.values), len(rec), hist.count, hist.total,
                hist._min, hist._max, sorted(hist._buckets.items()))

    return (
        result.fingerprint(),
        result.summary(),
        result.slo_violations,
        [recorder(r) for r in (result.wait_latencies, result.service_latencies,
                               result.total_latencies)],
        [(e.kind, e.t_us, e.fields) for e in sink.events],
        list(db.logical_items()),
    )


def serve_run(spec, serve, ops, bg_threads, throttle, flash) -> tuple:
    """Serve ``ops`` on a preloaded, traced LDC store; the outcome."""
    sink = RingBufferSink()
    db = prepare_db(
        "ldc", WorkloadGenerator(spec).preload_operations(),
        serve_config(bg_threads, throttle),
        DeviceConfig(flash=SERVE_FLASH) if flash else DeviceConfig(),
        tracer=Tracer([sink]),
    )
    result = serve_workload(spec, "ldc", serve, db=db, operations=ops)
    db.check_invariants()
    return serve_outcome(result, sink, db)


def serve_cases(rng, bg_threads: tuple) -> list:
    """Every throttle x flash x scans cell once per thread count, with the
    rate (2k-80k ops/s, log-uniform), queue depth (1-12), read-modify-write
    stride, seed and SLO (20-3,000 us) drawn.  The first four cases sit on
    the edges: depth 1 at 80k ops/s, depth 12 at 2k, depth 1 under a 20 us
    SLO, and 80k ops/s under a 3,000 us SLO."""
    cases = []
    for threads in bg_threads:
        for cell in range(8):
            throttle, flash, scans = bool(cell & 4), bool(cell & 2), bool(cell & 1)
            cases.append(dict(
                rate=2_000.0 * 40 ** rng.random(),
                queue_depth=rng.randint(1, 12), throttle=throttle, flash=flash,
                bg_threads=threads, scans=scans, rmw_every=rng.choice((0, 5)),
                seed=rng.randint(0, 2**16), slo_us=20.0 * 150 ** rng.random(),
            ))
    edges = (dict(queue_depth=1, rate=80_000.0), dict(queue_depth=12, rate=2_000.0),
             dict(queue_depth=1, slo_us=20.0), dict(rate=80_000.0, slo_us=3_000.0))
    for case, edge in zip(cases, edges):
        case.update(edge)
    return cases


def serve_case_answer(case) -> tuple:
    make = scn_rwb if case["scans"] else rwb
    spec = make(num_operations=240, key_space=120, preload_keys=120,
                value_bytes=90, key_bytes=12, scan_length=8, seed=case["seed"])
    serve = ServeSpec(rate_ops_s=case["rate"], seed=case["seed"],
                      queue_depth=case["queue_depth"], slo_us=case["slo_us"])
    return serve_run(spec, serve, serve_operations(spec, case["rmw_every"]),
                     case["bg_threads"], case["throttle"], case["flash"])


def write_burst(bg_threads: int, flash: bool, rate: float, queue_depth: int,
                seed: int) -> tuple:
    """300-byte puts fast enough to fill Level 0: with a background thread
    the queue fills, and admission back-pressures at slowdown and stop."""
    spec = wo(num_operations=1_500, key_space=300, preload_keys=300,
              value_bytes=300, key_bytes=12, seed=seed)
    serve = ServeSpec(rate_ops_s=rate, queue_depth=queue_depth, seed=seed)
    return serve_run(spec, serve, list(WorkloadGenerator(spec).operations()),
                     bg_threads, True, flash)


def serve_answers() -> list:
    answers = [serve_case_answer(case)
               for case in serve_cases(random.Random(16), (0,))]
    answers.append(write_burst(0, True, 20_000.0, 3, 5))
    return answers


def serve_threaded_answers() -> list:
    """The same cells over one and three background threads, and two write
    bursts that reject at a full queue and back-pressure."""
    answers = [serve_case_answer(case)
               for case in serve_cases(random.Random(17), (1, 3))]
    answers.append(write_burst(1, True, 20_000.0, 3, 5))
    answers.append(write_burst(3, False, 40_000.0, 6, 9))
    return answers


CORPORA = {
    "version": version_answers,
    "merge": merge_answers,
    "recorder": recorder_answers,
    "bloom": bloom_answers,
    "flash": flash_answers,
    "runner": runner_answers,
    "serve": serve_answers,
    "serve_threaded": serve_threaded_answers,
}
PIN_CASES = [f"retired_oracles/{name}" for name in CORPORA]


@pytest.mark.parametrize("name", list(CORPORA))
def test_frozen_answers(name):
    check(f"retired_oracles/{name}", CORPORA[name]())
