"""Golden determinism tests guarding the simulation fast path.

The hot-path optimizations (cheap Bloom hashing, the k-way merge rewrite,
batched SSTable construction, skip-list bulk loads, workload-generator
memoization) are only admissible because they leave the *simulated* results
bit-identical: same seeds must keep producing the same virtual time, the
same device bytes and the same compaction counts.  These tests pin those
results byte for byte so any future "optimization" that quietly
shifts the simulation fails here, not in a reproduction figure.

Two golden layers:

* **Bloom bit patterns** — the filter over a fixed key set must produce the
  same bytes on every platform and process (crc32/adler32 are standardized;
  the digest is over the packed on-device layout, which the one-byte-per-bit
  table must reproduce exactly);
* **End-to-end metric snapshots** — a small RWB run under UDC and LDC must
  reproduce pinned virtual-elapsed time, I/O byte totals and maintenance
  counters exactly.

Every pin is an entry of ``tests/pins.json`` (``perf_golden/...``): the
Bloom filter's bytes, and per policy the snapshot of the plain run
(``end_to_end``), of the same run with compaction on one background thread
(``sched``, which moves simulated timing on purpose), of a scan mix
(``scan``) and of a run through the batched APIs (``batched``).  If a PR
*intends* to change simulated behaviour (new cost model, policy change),
it re-pins with ``PYTHONPATH=src python -m tests.pins --write "<reason>"``
and pastes the moved-pin table into CHANGES.md — that is the contract.
"""

import functools

import numpy as np
import pytest

from repro.harness import experiments
from repro.lsm import bloom
from repro.lsm.bloom import BloomFilter, key_hashes
from repro.lsm.config import LSMConfig
from repro.lsm.db import DB, WriteBatch
from repro.workload import spec as workloads

from .pins import check

GOLDEN_RUN_OPS = 2500
GOLDEN_RUN_KEYS = 1000

#: SCN-WH (Table III: 70% puts, 30% 100-record scans) with a 256 KB block
#: cache, first pinned on the commit *before* ``DB.scan`` moved to lazy
#: level cursors.  The scan path's contract is that only host work
#: changed: the clock, the ``user_scan`` device counters and the block
#: cache's hit/miss/eviction history must stay as pinned.
GOLDEN_SCAN_OPS = 2500
GOLDEN_SCAN_KEYS = 4000
GOLDEN_SCAN_CACHE_BYTES = 256 * 1024

_POLICIES = {"UDC": "udc", "LDC": "ldc"}

#: Keys whose double-hash bases ``test_base_hashes_pinned`` pins.
BASE_HASH_KEYS = (b"00000000000000000000", b"key-42", b"\x00\x01\x02")
BATCHED = [(name, bg_threads) for name in _POLICIES for bg_threads in (0, 1)]
PIN_CASES = [
    "perf_golden/bloom/base_hashes",
    "perf_golden/bloom/bit_pattern",
    *(f"perf_golden/{table}/{name}"
      for table in ("end_to_end", "sched", "scan") for name in _POLICIES),
    *(f"perf_golden/batched/{name}-{bg_threads}" for name, bg_threads in BATCHED),
]


def _golden_keyset():
    return [str(index).zfill(16).encode("ascii") for index in range(500)]


def _packed_bits(bf: BloomFilter) -> bytes:
    """The filter's bits packed little-endian, eight to a byte."""
    table = np.frombuffer(bf._flags, np.uint8)
    return np.packbits(table, bitorder="little").tobytes()


def _pin(table: str, policy_name: str, result) -> None:
    """Check ``result``'s snapshot against pin ``perf_golden/table/policy``."""
    check(f"perf_golden/{table}/{policy_name}", SNAPSHOTS[table](result),
          elapsed_us=result.elapsed_us, write_amp=result.write_amplification)


def _snapshot(result) -> dict:
    return {
        "elapsed_us": result.elapsed_us,
        "total_write_bytes": result.total_write_bytes,
        "total_read_bytes": result.total_read_bytes,
        "compaction_read_bytes": result.compaction_read_bytes,
        "compaction_write_bytes": result.compaction_write_bytes,
        "flush_count": result.flush_count,
        "compaction_count": result.compaction_count,
        "link_count": result.link_count,
        "merge_count": result.merge_count,
        "space_bytes": result.space_bytes,
        "user_bytes_written": result.user_bytes_written,
        "sstable_blocks_read": result.sstable_blocks_read,
        "bloom_negative_skips": result.bloom_negative_skips,
    }


def _sched_snapshot(result) -> dict:
    """The engine snapshot plus the scheduler's own counters."""
    counters = result.metrics.counters
    data = _snapshot(result)
    data.update(
        {
            key: counters.get(key, 0)
            for key in (
                "sched.tasks_enqueued",
                "sched.tasks_completed",
                "sched.chunks_executed",
                "sched.device_waits",
                "sched.stall_events",
                "sched.slowdown_events",
            )
        }
    )
    data["stall_time_us"] = result.stall_time_us
    data["device_wait_us"] = result.device_wait_us
    return data


def _scan_snapshot(result) -> dict:
    """The engine snapshot plus everything only a scan charges."""
    counters = result.metrics.counters
    data = _snapshot(result)
    data.update(
        {
            key: counters.get(key, 0)
            for key in (
                "engine.scans",
                "engine.scanned_records",
                "engine.activity.scan",
                "device.read.user_scan.ops",
                "device.read.user_scan.bytes",
                "device.read.user_scan.time_us",
                "cache.hits",
                "cache.misses",
                "cache.evictions",
                "cache.evicted_bytes",
            )
        }
    )
    return data


SNAPSHOTS = {"end_to_end": _snapshot, "sched": _sched_snapshot,
             "scan": _scan_snapshot}


def _run_scan(policy_name: str):
    spec = workloads.scn_wh(
        num_operations=GOLDEN_SCAN_OPS,
        key_space=GOLDEN_SCAN_KEYS,
        preload_keys=GOLDEN_SCAN_KEYS,
    )
    return experiments.run_workload(
        spec,
        _POLICIES[policy_name],
        config=LSMConfig(block_cache_bytes=GOLDEN_SCAN_CACHE_BYTES),
    )


def _run(policy_name: str, bg_threads: int = 0):
    spec = workloads.rwb(
        num_operations=GOLDEN_RUN_OPS, key_space=GOLDEN_RUN_KEYS
    )
    return experiments.run_workload(
        spec,
        _POLICIES[policy_name],
        config=LSMConfig(bg_threads=bg_threads),
    )


@functools.lru_cache(maxsize=None)
def _plain_run(policy_name: str):
    """The default (``bg_threads=0``) run, made once per policy and shared
    by the tests that only read it."""
    return _run(policy_name)


def _batched_db(policy_name: str, bg_threads: int) -> DB:
    """Drive a DB through the batched APIs with a fixed operation stream."""
    config = LSMConfig(bg_threads=bg_threads)
    db = DB(config=config, policy=_POLICIES[policy_name])
    batch = WriteBatch()
    for index in range(4000):
        # Mostly-distinct keys so batches actually drive flushes and
        # compaction (pure overwrites would sit in the memtable forever).
        key = str(index % 3100).zfill(16).encode("ascii")
        if index % 11 == 5:
            batch.delete(key)
        else:
            batch.put(key, b"v%06d" % index + b"x" * 80)
        if len(batch) == 7:
            db.write_batch(batch)
            batch.clear()
    if len(batch):
        db.write_batch(batch)
    probe = [str(index * 3).zfill(16).encode("ascii") for index in range(500)]
    for key in probe:
        db.get(key)
    db.sched.drain()
    if not bg_threads:
        # The zero-thread engine: no channel, and no sched.* key.
        assert db.sched.num_threads == 0 and db.device.channel is None
        assert not db.metrics().component("sched")
    return db


class TestBloomGolden:
    def test_base_hashes_pinned(self):
        """The double-hash bases are platform-independent constants."""
        check("perf_golden/bloom/base_hashes",
              [(key, key_hashes(key)) for key in BASE_HASH_KEYS])

    def test_bit_pattern_pinned(self):
        """The whole filter byte array, its size and hash count are pinned."""
        bf = BloomFilter(_golden_keyset(), bits_per_key=10)
        check("perf_golden/bloom/bit_pattern",
              (bf.size_bytes, bf.hash_count, _packed_bits(bf)),
              size_bytes=bf.size_bytes, hash_count=bf.hash_count)

    def test_fpr_within_theory_bounds(self):
        """Measured FPR stays near the theoretical optimum for the sizing.

        The cheap hash pair is only acceptable if it does not degrade
        filter quality: allow at most 2x theory at 10 bits/key, for both
        sequential (zero-padded decimal) and structured-prefix keys.
        """
        theory = bloom.theoretical_fpr(10)
        members = _golden_keyset()
        absent = [
            str(index).zfill(16).encode("ascii") for index in range(10_000, 30_000)
        ]
        bf = BloomFilter(members, bits_per_key=10)
        assert bf.false_positive_rate(absent) < 2 * theory
        prefixed = [b"user:" + key for key in members]
        prefixed_absent = [b"user:" + key for key in absent]
        bf2 = BloomFilter(prefixed, bits_per_key=10)
        assert bf2.false_positive_rate(prefixed_absent) < 2 * theory

    def test_no_false_negatives_on_golden_set(self):
        bf = BloomFilter(_golden_keyset(), bits_per_key=10)
        assert all(bf.may_contain(key) for key in _golden_keyset())


class TestEndToEndGolden:
    """UDC and LDC runs must reproduce the pinned metric snapshots exactly."""

    @pytest.mark.parametrize("policy_name", ["UDC", "LDC"])
    def test_metrics_byte_identical(self, policy_name):
        _pin("end_to_end", policy_name, _plain_run(policy_name))

    def test_runs_are_process_deterministic(self):
        """Two runs in the same process agree with each other (and golden)."""
        first = _run("LDC")
        assert _snapshot(first) == _snapshot(_run("LDC"))
        _pin("end_to_end", "LDC", first)

    @pytest.mark.parametrize("policy_name", ["UDC", "LDC"])
    def test_scheduler_off_is_byte_identical(self, policy_name):
        """``bg_threads=0`` must not perturb the simulation at all.

        The scheduler's hooks (device channel arbitration, clock capture
        mode, throttle hooks) must cost no virtual microsecond and move no
        byte until a thread is configured.  ``_run`` defaults to
        ``bg_threads=0``, so this reads the same cached run as
        ``test_metrics_byte_identical`` rather than simulating it again.
        """
        result = _plain_run(policy_name)
        _pin("end_to_end", policy_name, result)
        assert result.stall_time_us == 0.0
        assert result.device_wait_us == 0.0


class TestScanGolden:
    """SCN-WH is pinned byte-exact, like the RWB run above.

    Regenerating these for a scan-path change defeats their purpose: a
    scan optimisation may change which host objects it touches, never
    what it charges.
    """

    @pytest.mark.parametrize("policy_name", ["UDC", "LDC"])
    def test_scan_metrics_byte_identical(self, policy_name):
        result = _run_scan(policy_name)
        _pin("scan", policy_name, result)


class TestSchedulerGolden:
    """The scheduler-on run is pinned just as tightly as the off run.

    Concurrency here is *virtual*: chunk replay order, channel waits and
    throttle decisions are all pure functions of the operation stream, so
    a scheduled run must reproduce exact byte counts, stall totals and
    task counts — flakiness in these numbers means lost determinism.
    """

    @pytest.mark.parametrize("policy_name", ["UDC", "LDC"])
    def test_sched_metrics_byte_identical(self, policy_name):
        result = _run(policy_name, bg_threads=1)
        _pin("sched", policy_name, result)

    def test_sched_run_is_process_deterministic(self):
        first = _run("LDC", bg_threads=1)
        assert _sched_snapshot(first) == _sched_snapshot(_run("LDC", bg_threads=1))
        _pin("sched", "LDC", first)

    def test_sched_changes_timing_not_contents(self):
        """Sanity on what the two golden layers mean: the scheduler shifts
        *when* device time is charged (elapsed differs) but the user bytes
        written — logical work — match the off-run exactly."""
        on = _sched_snapshot(_run("LDC", bg_threads=1))
        off = _snapshot(_run("LDC"))
        assert on["user_bytes_written"] == off["user_bytes_written"]
        assert on["flush_count"] == off["flush_count"]
        assert on["elapsed_us"] != off["elapsed_us"]


class TestBatchedGolden:
    """The batched write API is pinned as tightly as the per-op run.

    ``write_batch`` amortises WAL/memtable acquisition per batch (its
    virtual-time cost intentionally differs from N individual puts), so
    its simulated effects get their own fingerprints.
    """

    @pytest.mark.parametrize("policy_name,bg_threads", BATCHED)
    def test_batched_run_fingerprint(self, policy_name, bg_threads):
        db = _batched_db(policy_name, bg_threads)
        check(f"perf_golden/batched/{policy_name}-{bg_threads}",
              (sorted(db.registry.counters().items()), db.clock.now()),
              elapsed_us=db.clock.now(),
              write_amp=db.metrics().write_amplification)
