"""Host cost per operation must not grow with the size of the store.

These are counting tests, not timing tests: they count the files a level
query reads keys from, and the Python calls cProfile sees, and compare a
small store with one ten or a hundred times its size.  Counts repeat
exactly, so nothing here depends on how fast the machine is.

The bookkeeping they pin used to rescan a level (or every flash owner,
or the whole block cache) per compaction round or per request; the
bounds below fail on any return to that — LDC's frozen-space victim and
link-source picks included.  ``TestCallsPerPut`` pins what a put that
neither flushes nor compacts pays.  ``TestCallsPerGet`` pins the point
lookup — what a get pays per Bloom probe — against the call count of the
per-probe routine it replaced, frozen as a constant;
``TestCallsPerBuild`` that a Bloom filter build pays per filter, not per
key, and ``TestStageCost`` what mounting a device stage (trace sink,
fault plan, flash) adds to a put and a get, ``TestLedgerCost`` that counting an
operation costs no call of its own.  ``TestCallsPerScan`` pins what a scan pays
per record returned and per block charged, against the frozen call count
of the record-at-a-time scan it replaced.  ``TestCallsPerMerge``
pins that a compaction merge pays per input window, not per record or heap
round, and that its output files lay out no block until something reads
one.  ``TestStackTax`` pins what the wrappers around the engine — serve
loop, arrival merge, scheduler replay, FTL programming, recorders — add
to a served request, a replayed chunk, a programmed page and a recorded
batch (the chunk replay against ``tests/_pump_oracle.py``).
"""

import cProfile
import math
import random
from collections import Counter
from functools import partial
from itertools import count
from types import SimpleNamespace

import pytest

from repro import DB, DeviceConfig, FlashSpec, RingBufferSink, SimulatedSSD, Tracer
from repro.core.primitives import LDCLinkMergeMovement, LDCUnitSelector
from repro.core.slice import Slice, attach_slice
from repro.faults.plan import FaultPlan
from repro.lsm import bloom as bloom_module
from repro.lsm.builder import build_balanced_columns
from repro.lsm.compaction.columnar import merge_windows
from repro.lsm.config import LSMConfig
from repro.lsm.keys import key_successor
from repro.lsm.record import put_record
from repro.lsm.sstable import SSTable
from repro.lsm.version import VersionSet
from repro.obs.events import ALL_EVENT_KINDS, EV_DEVICE_READ, EV_DEVICE_WRITE
from repro.harness.latency import FOLD_WATERMARK, LatencyRecorder
from repro.harness.runner import prepare_db
from repro.obs.registry import MetricsRegistry
from repro.sched.scheduler import CompactionTask
from repro.serve import ServeSpec, serve_workload
from repro.ssd.clock import CAPTURE_CPU, CAPTURE_IO
from repro.ssd.metrics import FLUSH_WRITE, WAL_WRITE
from repro.workload.spec import rwb
from repro.workload.ycsb import WorkloadGenerator

from ._pump_oracle import ChunkReplayScheduler

CONFIG = LSMConfig(max_levels=4)
LEVEL = 2
FILES = 1_000

_file_ids = count(1)


def _spied(name):
    slot = getattr(SSTable, name)

    def read(self):
        SpyTable.touched.add(self.file_id)
        return slot.__get__(self)

    return property(read, slot.__set__)


class SpyTable(SSTable):
    """An SSTable that notes which files had a boundary key, their links or
    their linked bytes read, or were compared (``list.index`` walks a level
    by ``==``)."""

    touched = set()
    min_key = _spied("min_key")
    max_key = _spied("max_key")
    slice_links = _spied("slice_links")
    linked_bytes = _spied("linked_bytes")
    __hash__ = SSTable.__hash__

    def __eq__(self, other):
        SpyTable.touched.add(self.file_id)
        return self is other


def key_of(number: int) -> bytes:
    return b"%08d" % number


def spy_table(numbers) -> SpyTable:
    records = [put_record(key_of(n), b"v", n + 1) for n in numbers]
    return SpyTable.from_records(next(_file_ids), records, CONFIG)


def big_level() -> VersionSet:
    """File ``i`` of ``FILES`` covers keys ``10i+2 .. 10i+6``."""
    version = VersionSet(CONFIG)
    for index in range(FILES):
        version.add_file(LEVEL, spy_table([10 * index + 2, 10 * index + 6]))
    return version


def touched_by(call) -> int:
    SpyTable.touched = set()
    call()
    return len(SpyTable.touched)


def files_touched(call, answer_size: int = 0) -> int:
    touched = touched_by(call)
    assert touched <= 2 * math.log2(FILES) + answer_size + 4, touched
    return touched


class TestLevelQueriesTouchFewFiles:
    """One query against a 1 000-file sorted level reads O(log N + answer) files."""

    def test_add_file(self):
        version = big_level()
        newcomer = spy_table([5007, 5009])  # the gap after file 500
        files_touched(lambda: version.add_file(LEVEL, newcomer))
        assert version.files(LEVEL)[501] is newcomer

    def test_remove_file(self):
        version = big_level()
        table = version.files(LEVEL)[700]
        files_touched(lambda: version.remove_file(LEVEL, table))
        assert version.num_files(LEVEL) == FILES - 1

    def test_overlapping(self):
        version = big_level()
        answer = []
        files_touched(
            lambda: answer.extend(
                version.overlapping(LEVEL, key_of(3004), key_of(3100))
            ),
            answer_size=10,
        )
        assert answer == version.files(LEVEL)[300:310]

    def test_pick_file_round_robin(self):
        version = big_level()
        version.compact_pointer[LEVEL] = key_of(8006)
        picked = []
        files_touched(
            lambda: picked.append(version.pick_file_round_robin(LEVEL))
        )
        assert picked == [version.files(LEVEL)[801]]

    def test_slice_plan(self):
        version = big_level()
        movement = LDCLinkMergeMovement()
        movement.db = SimpleNamespace(version=version)
        source = spy_table(range(4000, 4037, 3))  # owned by files 400..403
        plan = []
        files_touched(
            lambda: plan.extend(movement._slice_plan(source, LEVEL)),
            answer_size=4,
        )
        targets = version.files(LEVEL)
        assert [target for target, _, _ in plan] == targets[400:404]
        assert plan[0][1] == key_successor(targets[399].max_key)

    def test_frozen_space_victim(self):
        """A forced merge's pick reads at most one table, however large the
        linked set: the first one linked."""
        source = SSTable.from_records(
            next(_file_ids), [put_record(key_of(1), b"f", 1)], CONFIG
        )
        source.frozen = True
        link_seqs = count(1)
        for linked in (10, FILES):
            version = big_level()
            movement = LDCLinkMergeMovement()
            movement.db = SimpleNamespace(
                version=version, config=CONFIG, registry=MetricsRegistry()
            )
            movement.policy = SimpleNamespace(bump=lambda name: None)
            movement.frozen = SimpleNamespace(space_bytes=10 ** 12)
            files = version.files(LEVEL)
            # Linked back to front, one to three slices each.
            for index in range(linked - 1, -1, -1):
                for _ in range(1 + index % 3):
                    attach_slice(
                        files[index], Slice(source, None, None, next(link_seqs))
                    )
                movement._linked_tables[files[index].file_id] = files[index]
            picked = []
            movement.merge = picked.append
            assert touched_by(movement._enforce_frozen_space_limit) <= 1
            assert picked == [files[linked - 1]]

    def test_pick_link_source(self):
        """Past the pointer to the first link-free file, wrapping to the
        level's first; the sorted filter it replaced read every file of
        the level."""
        version = big_level()
        selector = LDCUnitSelector()
        selector.db = SimpleNamespace(version=version)
        files = version.files(LEVEL)
        for table in files[801:806]:
            table.slice_links = [None]  # linked: not a link source
        version.compact_pointer[LEVEL] = files[800].max_key
        picked = []
        files_touched(
            lambda: picked.append(selector._pick_link_source(LEVEL)),
            answer_size=6,
        )
        assert picked == [files[806]]
        # Wrapping past the last file, to the first link-free one.
        version.compact_pointer[LEVEL] = files[-1].max_key
        files[0].slice_links = [None]
        picked = []
        files_touched(
            lambda: picked.append(selector._pick_link_source(LEVEL)),
            answer_size=2,
        )
        assert picked == [files[1]]


def profiled_names(run) -> Counter:
    """Profiled calls of ``run``, counted by function name."""
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    names: Counter = Counter()
    for entry in profiler.getstats():
        code = entry.code
        names[code if isinstance(code, str) else code.co_name] += entry.callcount
    return names


def total_calls(run) -> int:
    return sum(profiled_names(run).values())


def calls_per_put(policy: str, keys: int, puts: int = 4_000) -> float:
    """Profiled calls per overwrite on a store preloaded with ``keys`` 1 KB records."""
    db = DB(config=LSMConfig(), policy=policy)
    rng = random.Random(5)
    order = list(range(keys))
    rng.shuffle(order)
    value = b"v" * 1024
    for number in order:
        db.put(key_of(number), value)
    db.policy.maybe_compact()
    stream = [key_of(rng.randrange(keys)) for _ in range(puts)]

    def run():
        for key in stream:
            db.put(key, value)

    calls = total_calls(run)
    db.check_invariants()
    return calls / puts


class TestCallsPerPutVersusStoreSize:
    """Ten times the keys (two more levels) against the calls per put.

    The per-link and per-round level scans this guards against made the
    LDC ratio 1.91x; with them gone it measured 1.35x, and 1.26x once a
    merge became one sort and a file's blocks were laid out on first read
    (1.29x, 48.9 -> 62.9 calls, before the put path went one frame deep).
    UDC went 1.44x -> 1.20x -> 1.09x (1.10x, 36.8 -> 40.6): its rounds are
    visible to a call count now that each is a handful of calls per merge
    and per output file, so it is gated too.  Bounds are the measured
    ratio + 0.1.

    A cheaper put (``TestCallsPerPut``) lowers both counts by the same 12
    calls, which raises the ratio without any growth: LDC now measures
    35.9 -> 48.3 (1.35x) and UDC 24.8 -> 28.7 (1.16x).  So the growth in
    calls is gated as well, at the measured +12.4 (LDC, +14.1 before its
    round bookkeeping stopped rescanning levels) and +3.9 (UDC), plus 0.5.
    """

    @staticmethod
    def small_and_large(policy: str) -> tuple:
        return calls_per_put(policy, 4_000), calls_per_put(policy, 40_000)

    def test_ldc_put_cost_is_nearly_flat_in_store_size(self):
        small, large = self.small_and_large("ldc")
        assert large <= 1.36 * small, (small, large)
        assert large - small <= 12.9, (small, large)

    def test_udc_put_cost_is_nearly_flat_in_store_size(self):
        small, large = self.small_and_large("udc")
        assert large <= 1.19 * small, (small, large)
        assert large - small <= 4.4, (small, large)


class TestCallsPerPut:
    """A put that neither flushes nor compacts carries only its own work.

    ``put`` and ``_apply_write`` (validation and the record built in
    place), the record's ``tuple.__new__`` and two ``len``, Level 0's
    ``len`` against the slowdown trigger, ``WriteAheadLog.append`` with
    ``device.write`` (three counter reads) and one ``list.extend``,
    ``MemTable.add`` (one ``dict.get``) and four counter reads: 18 calls,
    for UDC and LDC alike.  The write path it replaced made 30:
    ``_check_open``, ``_check_key`` with two ``isinstance``,
    ``_next_sequence``, ``put_record``, the policy's ``on_operation``,
    ``_maybe_stall``, ``clock.advance``, the maintenance poll past a closed
    idle gate, and an ``_append_unit`` frame building a ``_Unit``.
    """

    @staticmethod
    def quiet_put_calls(policy: str) -> list:
        """Calls of each put that found the idle gate closed and did not flush."""
        db = DB(config=LSMConfig(), policy=policy)
        rng = random.Random(5)
        value = b"v" * 1024
        for _ in range(3_000):
            db.put(key_of(rng.randrange(6_000)), value)
        calls = []
        for _ in range(2_000):
            idle = db.policy._maintenance_idle
            flushes = db.metrics().get("engine.flush_count")
            made = calls_made(partial(db.put, key_of(rng.randrange(6_000)), value))
            if idle and db.metrics().get("engine.flush_count") == flushes:
                calls.append(made)
        db.check_invariants()
        assert len(calls) > 1_800, len(calls)
        return calls

    @pytest.mark.parametrize("policy", ("udc", "ldc"))
    def test_at_most_20_calls(self, policy):
        calls = self.quiet_put_calls(policy)
        assert max(calls) <= 20, Counter(calls)


def interleaved_windows(streams: int, per_stream: int) -> list:
    """``streams`` windows whose keys alternate record by record.

    Every key sits between keys of the other streams, so a galloping
    merge finds runs of one record; one key in eight is also held, at a
    lower sequence number, by the next stream.
    """
    windows = []
    for stream in range(streams):
        numbers = set(range(stream, streams * per_stream, streams))
        numbers.update(n - 1 for n in list(numbers) if n % 8 == 0 and n)
        records = [
            put_record(key_of(n), b"v" * (n % 5), n * streams + (n - stream) % streams)
            for n in sorted(numbers)
        ]
        windows.append(([record.key for record in records], records, 0, len(records)))
    return windows


class TestCallsPerMerge:
    """A merge pays per window, an output file nothing per block."""

    @pytest.mark.parametrize("streams", [2, 5, 12])
    def test_calls_do_not_grow_with_the_records_merged(self, streams):
        def calls(per_stream):
            windows = interleaved_windows(streams, per_stream)
            return total_calls(lambda: merge_windows(windows))

        small = calls(40)
        assert small <= 2 * streams + 12
        assert calls(400) == small

    def test_output_files_lay_out_no_block_until_one_is_read(self):
        merged = merge_windows(interleaved_windows(3, 200))
        assert len(merged[1]) == 600

        def build(block_bytes):
            config = LSMConfig(sstable_target_bytes=4096, block_bytes=block_bytes)
            outputs = []
            names = profiled_names(
                lambda: outputs.extend(
                    build_balanced_columns(*merged, config, partial(next, _file_ids))
                )
            )
            assert names["_build_blocks"] == 0
            return outputs, sum(names.values())

        outputs, calls = build(256)
        assert len(outputs) > 2
        # Eight times the blocks per file, not one call more.
        assert build(32)[1] == calls
        table = outputs[0]
        assert table._block_starts is None
        assert profiled_names(lambda: table.locate(table.min_key))["_build_blocks"] == 1
        assert table.num_blocks > 2
        assert sum(table.block_index()[1]) == table.data_size
        assert profiled_names(lambda: table.locate(table.max_key))["_build_blocks"] == 0


class TestFlashCostVersusOwners:
    @staticmethod
    def calls_with_owners(owners: int) -> int:
        spec = FlashSpec(
            page_bytes=256, pages_per_block=8, logical_bytes=1024 * 1024
        )
        device = SimulatedSSD(DeviceConfig(flash=spec))
        for owner in range(owners):
            device.write(300, FLUSH_WRITE, sequential=True, owner=owner)
        device.write(100, WAL_WRITE, sequential=True, owner="log", stream=True)

        def run():
            device.write(700, FLUSH_WRITE, sequential=True, owner="new")
            device.write(300, WAL_WRITE, sequential=True, owner="log", stream=True)
            device.trim("new")
            device.trim("log")

        calls = total_calls(run)
        device.flash.check_invariants()
        return calls

    def test_host_write_and_trim_do_not_visit_other_owners(self):
        # Both counts leave the open block at the same fill (two pages per
        # owner, eight per block), so block turnover is the same too.
        assert self.calls_with_owners(800) == self.calls_with_owners(8)


def loaded_store(policy: str, keys: int) -> DB:
    """``keys`` 1 KB records in random order, compacted, behind a small cache."""
    db = DB(config=LSMConfig(block_cache_bytes=256 * 1024), policy=policy)
    rng = random.Random(5)
    order = list(range(keys))
    rng.shuffle(order)
    for number in order:
        db.put(key_of(number), b"v" * 1024)
    db.policy.maybe_compact()
    return db


def calls_per_get(get, stream) -> float:
    """Profiled calls per ``get(key)`` over ``stream``, filters already built."""
    for key in stream:
        get(key)

    def run():
        for key in stream:
            get(key)

    return total_calls(run) / len(stream)


def linked_target(links: int) -> DB:
    """One Level-1 file carrying ``links`` slices, all covering every key.

    The slices' sources hold other keys than the file, so a get of one
    of the file's keys probes (and is turned away by) every slice filter
    before it reads the file itself.
    """
    db = DB(config=CONFIG, policy="ldc")
    target = SSTable.from_records(
        db.next_file_id(),
        [put_record(key_of(10 * n), b"v", n + 1) for n in range(100)],
        CONFIG,
    )
    db.version.add_file(1, target)
    for link in range(links):
        source = SSTable.from_records(
            db.next_file_id(),
            [put_record(key_of(10 * n + link + 1), b"w", 1_000 + n) for n in range(100)],
            CONFIG,
        )
        source.frozen = True
        source.refcount = 1
        piece = Slice(source, None, None, link_seq=link + 1)
        attach_slice(target, piece)
        db.version.note_linked_bytes(1, piece.size_bytes)
    return db


def turned_away_keys(db: DB) -> list:
    """Keys of ``linked_target``'s file inside every slice's key span (so
    each slice costs one filter probe) that every slice filter turns away
    (no false positive in the way, so no block read of a source)."""
    target = db.version.files(1)[0]
    links = target.slice_links
    return [
        key
        for key in target._keys
        if all(p.min_key <= key <= p.max_key for p in links)
        and not any(p.source.bloom.may_contain(key) for p in links)
    ]


class TestCallsPerGet:
    """A get pays per lookup, not per probe.

    The ratios are to the per-probe lookup this replaced, run on the same
    deterministic store and stream before it was deleted: its calls per
    get are :data:`PER_PROBE_CALLS_PER_GET`.  Every bound below failed on
    that routine.
    """

    #: policy -> (keys, the per-probe lookup's profiled calls per get).
    PER_PROBE_CALLS_PER_GET = {"ldc": (16_000, 117.085), "udc": (4_000, 79.025)}

    def ratio(self, policy: str) -> float:
        keys, per_probe_calls = self.PER_PROBE_CALLS_PER_GET[policy]
        db = loaded_store(policy, keys)
        rng = random.Random(9)
        stream = [key_of(rng.randrange(keys)) for _ in range(1_000)]
        if policy == "ldc":
            links = [
                len(table.slice_links)
                for table in db.version.all_tables()
                if table.slice_links
            ]
            assert sum(links) >= 4 * len(links) > 0, links
        return calls_per_get(db.get, stream) / per_probe_calls

    def test_ldc_get_costs_under_six_tenths_of_the_per_probe_lookup(self):
        """Measured 0.44 on a store with 4.4 links per linked file: 16 000
        keys, since at 8 000 a linked file holds 2.7."""
        assert self.ratio("ldc") <= 0.6

    def test_udc_get_costs_under_eight_tenths_of_the_per_probe_lookup(self):
        """Measured 0.57: three probes a get leave less per-probe cost to fold."""
        assert self.ratio("udc") <= 0.8

    def test_one_more_covering_slice_costs_at_most_three_calls(self):
        """The marginal probe is ``may_contain`` and nothing else.

        The per-probe lookup paid seven: ``covers_key``, ``in_range``,
        ``advance``, ``may_contain``, its memo ``dict.get``, and
        ``registry.add`` with its ``dict.get``.
        """
        few, many = linked_target(4), linked_target(8)
        stream = [
            key for key in turned_away_keys(many) if key in turned_away_keys(few)
        ]
        assert len(stream) >= 50
        marginal = (
            calls_per_get(many.get, stream) - calls_per_get(few.get, stream)
        ) / 4
        assert many.metrics().get("engine.bloom_negative_skips") == 2 * 8 * len(stream)
        assert marginal <= 3, marginal

    def test_one_hash_pair_per_get_however_many_filters(self, monkeypatch):
        db = linked_target(8)
        stream = turned_away_keys(db)
        for key in stream:  # build every filter first
            db.get(key)
        computed = Counter()

        def counted(name):
            checksum = getattr(bloom_module, name)

            def call(key):
                computed[name] += 1
                return checksum(key)

            return call

        for name in ("crc32", "adler32"):
            monkeypatch.setattr(bloom_module, name, counted(name))
        probes_before = db.metrics().get("engine.bloom_negative_skips")
        absent = [key + b"x" for key in stream]
        for key in stream + absent:
            db.get(key)
        gets = 2 * len(stream)
        assert db.metrics().get("engine.bloom_negative_skips") - probes_before >= 8 * gets
        assert computed == {"crc32": gets, "adler32": gets}


class TestCallsPerBuild:
    """A Bloom filter build pays per filter, not per key.

    Both checksums are mapped over the key list at C level and every probe
    position is set in one numpy scatter, so ten times the keys is not one
    profiled call more.
    """

    @staticmethod
    def calls(count: int) -> int:
        keys = [key_of(number) for number in range(count)]
        return total_calls(lambda: bloom_module.BloomFilter(keys, 10))

    def test_ten_times_the_keys_costs_the_same_calls(self):
        assert self.calls(640) == self.calls(64)


def scan_mix_store(policy: str) -> DB:
    """The benchmark's ``scan_mix`` shape: 8 000 1 KB records behind a 256 KB
    cache, then 3 000 overwrites, so Level 0 holds files and LDC live links."""
    db = loaded_store(policy, 8_000)
    rng = random.Random(7)
    for _ in range(3_000):
        db.put(key_of(rng.randrange(8_000)), b"w" * 1024)
    return db


def calls_per_scan(scan, starts, count: int) -> float:
    def run():
        for start in starts:
            assert len(scan(start, count)) == count

    return total_calls(run) / len(starts)


@pytest.mark.parametrize("policy", ("udc", "ldc"))
class TestCallsPerScan:
    """A scan pays per source window and per charged range, not per record
    or per block.

    The ratio is to the record-at-a-time scan this replaced — a heap
    step, a generator resumption and a ``clock.advance`` per record, a
    probe plus an install (and two counter adds when it evicts) per block
    — run on the same store and starts before it was deleted: its calls
    per 100-record scan are :data:`RECORD_AT_A_TIME_CALLS_PER_SCAN`.
    ``DB.scan`` measured 0.315 / 0.287 of them (UDC 376 of 1 194, LDC 465
    of 1 622) and 0.51 / 1.29 calls per extra record returned, which is
    what the extra ranges cost.  With a cache call per block and a
    ``count_probes`` per range it was 0.372 / 0.368 (444 and 626 calls)
    and 1.01 / 2.30; the record-at-a-time scan paid 8.3 / 12.0 per extra
    record.  Every bound fails on either.
    """

    STARTS = [key_of(number) for number in range(37, 7_500, 149)]
    #: policy -> (calls per scan / the record-at-a-time scan's, calls per
    #: extra record).
    BOUNDS = {"udc": (0.34, 0.8), "ldc": (0.32, 1.8)}
    #: policy -> the record-at-a-time scan's profiled calls per scan.
    RECORD_AT_A_TIME_CALLS_PER_SCAN = {"udc": 1194.4705882352941,
                                       "ldc": 1621.6078431372548}

    def test_calls_per_scan_against_the_record_at_a_time_scan(self, policy):
        db = scan_mix_store(policy)
        if policy == "ldc":
            assert any(table.slice_links for table in db.version.all_tables())
        calls = calls_per_scan(db.scan, self.STARTS, 100)
        assert db.metrics()["cache.evictions"] > len(self.STARTS)
        frozen = self.RECORD_AT_A_TIME_CALLS_PER_SCAN[policy]
        assert calls <= self.BOUNDS[policy][0] * frozen, (calls, frozen)

    def test_an_extra_record_returned_costs_a_share_of_a_block(self, policy):
        db = scan_mix_store(policy)
        short = calls_per_scan(db.scan, self.STARTS, 100)
        long = calls_per_scan(db.scan, self.STARTS, 400)
        assert 0 < (long - short) / 300 <= self.BOUNDS[policy][1], (short, long)

    def test_a_16_block_range_costs_the_calls_of_a_1_block_range(self, policy):
        """One file, a cold cache that holds it: the range's blocks all
        miss and install without an eviction, then read as one run.  The
        per-block ``fetch`` it replaced paid a call per block."""

        def calls(blocks: int) -> int:
            db = DB(config=LSMConfig(block_cache_bytes=1 << 20), policy=policy)
            records = [
                put_record(key_of(number), b"r" * 1024, number + 1)
                for number in range(200)
            ]
            table = SSTable.from_records(db.next_file_id(), records, db.config)
            db.version.add_file(1, table)
            starts, sizes = table.block_index()
            count = starts[blocks]  # the records of blocks [0, blocks)
            run = total_calls(lambda: db.scan(key_of(0), count))
            assert db.metrics()["cache.misses"] == blocks
            assert db.metrics()["device.read.user_scan.bytes"] == sum(sizes[:blocks])
            assert "cache.evictions" not in db.metrics()
            return run

        assert calls(16) == calls(1)

    def test_at_most_one_add_per_cache_counter_per_scan(self, policy, monkeypatch):
        db = scan_mix_store(policy)
        adds, ranges = Counter(), []
        add, fetch_range = MetricsRegistry.add, db.block_cache.fetch_range

        def counting_add(registry, key, amount=1):
            adds[key] += 1
            add(registry, key, amount)

        def counting_fetch_range(*span):
            ranges.append(span)
            return fetch_range(*span)

        monkeypatch.setattr(MetricsRegistry, "add", counting_add)
        monkeypatch.setattr(db.block_cache, "fetch_range", counting_fetch_range)
        for start in self.STARTS:
            db.scan(start, 100)
        # Nearly every install evicts, and a scan charges several ranges.
        assert db.metrics()["cache.evictions"] > 2 * len(ranges)
        assert len(ranges) > 2 * len(self.STARTS)
        for key in ("hits", "misses", "evictions", "evicted_bytes"):
            assert 0 < adds[f"cache.{key}"] <= len(self.STARTS), (key, adds)


class TestStageCost:
    """What one mounted device stage adds to a put and to a get, in calls.

    LDC, default geometry, no block cache: 12 000 1 KB puts over 6 000
    keys, then 6 000 gets, each phase under cProfile.  Every I/O enters
    the one charge routine, so a stage costs its own hooks and nothing
    else; when stages were wrappers and guard-selected twins the same
    stages cost +13.1 / +11.7 (tracer), +20.7 / +19.5 (empty fault plan)
    and +20.9 (flash) calls per put / get, and every bound here failed.
    """

    KEYS, PUTS, GETS = 6_000, 12_000, 6_000

    @classmethod
    def calls(cls, **stage) -> tuple:
        """(calls per put, calls per get) of an LDC store built with ``stage``."""
        db = DB(config=LSMConfig(), policy="ldc", **stage)
        assert type(db.device) is SimulatedSSD
        rng = random.Random(5)
        value = b"v" * 1024
        puts = [key_of(rng.randrange(cls.KEYS)) for _ in range(cls.PUTS)]
        gets = [key_of(rng.randrange(cls.KEYS)) for _ in range(cls.GETS)]

        def run_puts():
            for key in puts:
                db.put(key, value)

        def run_gets():
            for key in gets:
                db.get(key)

        per_put = total_calls(run_puts) / cls.PUTS
        per_get = total_calls(run_gets) / cls.GETS
        assert db.metrics().get("engine.sstable_blocks_read") > cls.GETS // 2
        return per_put, per_get

    @pytest.fixture(scope="class")
    def bare(self) -> tuple:
        return self.calls()

    def added(self, bare: tuple, **stage) -> tuple:
        per_put, per_get = self.calls(**stage)
        return per_put - bare[0], per_get - bare[1]

    def test_trace_sink_with_device_kinds_filtered_out(self, bare):
        """Measured +3.1 / +1.9: ``emit`` and its ``wants``, per I/O."""
        kinds = set(ALL_EVENT_KINDS) - {EV_DEVICE_READ, EV_DEVICE_WRITE}
        tracer = Tracer([RingBufferSink()], kinds=kinds)
        per_put, per_get = self.added(bare, tracer=tracer)
        assert 0 < per_put <= 4, per_put
        assert 0 < per_get <= 4, per_get

    def test_empty_fault_plan(self, bare):
        """Measured +3.0 / +5.6: the plan's own hooks, and CRC checks on
        reads.  With a separate stage that called into the plan for each
        crash, transient and corruption take it measured +7.3 / +10.3."""
        per_put, per_get = self.added(bare, fault_plan=FaultPlan())
        assert 0 < per_put <= 5, per_put
        assert 0 < per_get <= 8, per_get

    def test_mounted_flash(self, bare):
        """Measured +11.9 per put (the FTL's own work); reads never see it."""
        per_put, per_get = self.added(bare, profile=DeviceConfig(flash=FlashSpec()))
        assert 0 < per_put <= 14, per_put
        assert per_get == 0, per_get


class TestLedgerCost:
    """Counting a put or a get costs no Python call of its own.

    The per-operation counter bumps and activity charges are in-place
    bumps of the registry's counter dict; what still goes through
    ``MetricsRegistry.add`` / ``set_gauge`` is per flush, per round or per
    link.  ``TestStageCost``'s store (LDC, default geometry, no cache):
    with ``charge_activity`` (2.06 calls per put, 1.0 per get) and the
    ``EngineStats`` / ``IOStats`` views the parent measured 52.10 calls
    per put and 49.31 per get; this measures 47.51 and 47.31.
    """

    PARENT = (52.10, 49.32)

    @staticmethod
    def calls(db: DB, run, operations: int) -> tuple:
        """(all profiled calls, those into ``obs/registry.py``) per operation."""
        profiler = cProfile.Profile()
        profiler.enable()
        run()
        profiler.disable()
        total = registry = 0
        for entry in profiler.getstats():
            total += entry.callcount
            code = entry.code
            if not isinstance(code, str) and code.co_filename.endswith(
                "obs/registry.py"
            ):
                registry += entry.callcount
        return total / operations, registry / operations

    def test_put_and_get_bump_the_counter_dict_in_place(self):
        db = DB(config=LSMConfig(), policy="ldc")
        rng = random.Random(5)
        value = b"v" * 1024
        puts = [key_of(rng.randrange(6_000)) for _ in range(12_000)]
        gets = [key_of(rng.randrange(6_000)) for _ in range(6_000)]

        def run_puts():
            for key in puts:
                db.put(key, value)

        def run_gets():
            for key in gets:
                db.get(key)

        per_put, put_registry = self.calls(db, run_puts, len(puts))
        before = db.metrics()
        per_get, get_registry = self.calls(db, run_gets, len(gets))
        charged = db.metrics().delta(before)
        # Every get was counted and charged ...
        assert charged["engine.gets"] == len(gets)
        assert charged["engine.activity.read"] > 0
        assert charged["engine.sstable_blocks_read"] > len(gets) // 2
        # ... by no call at all; a put's share is its flushes', rounds' and
        # links' (measured 0.50: 0.35 add + 0.15 set_gauge).
        assert get_registry == 0
        assert put_registry <= 0.6, put_registry
        assert per_put <= self.PARENT[0], per_put
        assert per_get <= self.PARENT[1], per_get


#: Source files of the layers wrapped around the engine on a served request.
STACK_FILES = ("/repro/serve/", "/repro/sched/", "/repro/harness/latency.py",
               "/repro/obs/histogram.py", "/repro/obs/registry.py")


def calls_made(run) -> int:
    """Profiled calls of ``run()``, itself included (the profiler's own
    ``disable`` is not)."""
    return total_calls(run) - 1


class TestStackTax:
    """What serve + scheduler + FTL + recorders add around the engine, in calls.

    A served request used to cost more outside the engine than inside it:
    per-sample loops in three recorder classes, a frozen-dataclass
    ``Request``, a five-method pump (73.4 calls); then still
    a heap pop and push per arrival, ``serve_one`` / ``_execute`` /
    ``offer`` / ``pop`` / ``complete`` / ``admission_bound`` per request,
    a selection and two counter reads per replayed chunk and a
    ``_next_page`` per programmed page (32.0, the per-request loop over
    ``tests/_pump_oracle.ChunkReplayScheduler`` and the page-at-a-time
    FTL).  Counts, never timings.
    """

    def test_stack_layers_cost_at_most_20_calls_per_served_request(self):
        """Open-loop Poisson serve over ``bg_threads=1`` + mounted flash:
        calls of functions in the stack's files plus the builtins they call
        directly, per request.  Measured 10.4: a ``take``, a ledger row, a
        depth check and a ``push`` per request, a write's throttle read,
        the scheduler's poll.  The per-request loop and heap merge measured
        28.9 over this tree's scheduler and FTL (32.0 over the parent's)."""
        spec = rwb(num_operations=4_000, key_space=1_500, preload_keys=1_500,
                   seed=11)
        serve = ServeSpec(arrival="poisson", rate_ops_s=8_000.0,
                          queue_depth=128, seed=11)
        db = prepare_db(
            "ldc", WorkloadGenerator(spec).preload_operations(),
            LSMConfig(bg_threads=1, block_cache_bytes=8 << 20),
            DeviceConfig(flash=FlashSpec()),
        )
        profiler = cProfile.Profile()
        profiler.enable()
        result = serve_workload(spec, "ldc", serve, db=db)
        profiler.disable()
        assert result.completed == 4_000
        assert result.metrics.get("sched.chunks_executed") > 1_000
        stack = 0
        for entry in profiler.getstats():
            code = entry.code
            if isinstance(code, str) or not any(
                part in code.co_filename.replace("\\", "/") for part in STACK_FILES
            ):
                continue
            stack += entry.callcount + sum(
                sub.callcount for sub in entry.calls or ()
                if isinstance(sub.code, str)
            )
        assert stack / 4_000 <= 20

    def test_idle_scheduler_costs_comparisons_only(self):
        """Nothing in flight, policy idle: ``on_operation`` calls nothing
        (itself + ``now`` + ``pump`` and three helpers before PR 23)."""
        db = DB(config=LSMConfig(bg_threads=1), policy="udc")
        db.policy._maintenance_idle = True
        assert not db.sched.in_flight
        assert calls_made(db.sched.on_operation) <= 2

    @staticmethod
    def replay_calls(bg_threads: int, chunks: int, oracle: bool = False) -> int:
        """Calls of ``pump(inf)`` over one mixed IO/CPU task per thread."""
        db = DB(config=LSMConfig(bg_threads=bg_threads), policy="udc")
        if oracle:
            ChunkReplayScheduler.install(db)
        sched = db.sched
        for task_id in range(bg_threads):
            sched.queue.append(CompactionTask(
                task_id, "udc", 0.0,
                [(CAPTURE_IO if n % 3 else CAPTURE_CPU, 1.5) for n in range(chunks)],
            ))
        calls = calls_made(lambda: sched.pump(math.inf))
        assert db.registry.counter("sched.chunks_executed") == bg_threads * chunks
        assert not sched.in_flight
        return calls

    @pytest.mark.parametrize("bg_threads", [1, 3])
    def test_a_replayed_chunk_costs_at_most_three_calls(self, bg_threads):
        """Two counter reads and one ``len`` per run; three threads whose IO
        chunks race the channel break runs often and measured 2.25 calls
        a chunk (3.0 chunk at a time, 12.7 through the five-method pump)."""
        calls = self.replay_calls(bg_threads, 2_000)
        assert calls <= 3 * bg_threads * 2_000 + 16 * bg_threads, calls

    def test_one_thread_replays_a_task_at_one_call_per_chunk_at_most(self):
        """A lone thread's chunks are one run: measured 12 calls for 2,000
        chunks, and 20 chunks cost the same.  The chunk-at-a-time replay
        (``tests/_pump_oracle.ChunkReplayScheduler``) paid three per chunk."""
        calls = self.replay_calls(1, 2_000)
        assert calls <= 2_000 + 16, calls
        assert self.replay_calls(1, 20) == calls
        assert self.replay_calls(1, 2_000, oracle=True) > 3 * 2_000

    def test_sixteen_pages_in_one_block_cost_the_calls_of_one(self):
        """A host write programs the open block's free pages as one run:
        16 pages make the 16 calls 1 page makes."""

        def calls(pages: int) -> int:
            spec = FlashSpec(page_bytes=256, pages_per_block=64,
                             logical_bytes=1024 * 1024)
            device = SimulatedSSD(DeviceConfig(flash=spec))
            device.write(256, FLUSH_WRITE, sequential=True, owner="a")  # opens a block
            made = calls_made(lambda: device.write(
                pages * 256, FLUSH_WRITE, sequential=True, owner="b"))
            device.flash.check_invariants()
            assert device.flash._host_used == 1 + pages  # one block throughout
            return made

        assert calls(16) == calls(1)

    @pytest.mark.parametrize("sampling", [(1, None), (4, 500)])
    def test_recording_a_batch_costs_the_same_calls_at_any_size(self, sampling):
        """``record_many`` is validate + extend + count: below the fold
        watermark 16,000 samples make exactly the calls 16 do."""
        recorder = LatencyRecorder(*sampling)
        small = [float(n % 97) for n in range(16)]
        large = [float(n % 97) for n in range(16_000)]
        assert len(small) + 2 * len(large) < FOLD_WATERMARK
        few = calls_made(lambda: recorder.record_many(small))
        many = calls_made(lambda: recorder.record_many(large))
        again = calls_made(lambda: recorder.record_many(large))
        assert few == many == again <= 12, (few, many, again)
        assert len(recorder) == recorder.histogram.count == 32_016
