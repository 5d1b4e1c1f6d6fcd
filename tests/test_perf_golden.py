"""Golden determinism tests guarding the simulation fast path.

The hot-path optimizations (cheap Bloom hashing, the k-way merge rewrite,
batched SSTable construction, skip-list bulk loads, workload-generator
memoization) are only admissible because they leave the *simulated* results
bit-identical: same seeds must keep producing the same virtual time, the
same device bytes and the same compaction counts.  These tests pin those
results to literal golden values so any future "optimization" that quietly
shifts the simulation fails here, not in a reproduction figure.

Two golden layers:

* **Bloom bit patterns** — the filter over a fixed key set must hash to the
  same bytes on every platform and process (crc32/adler32 are standardized;
  the digest is over the packed on-device layout, which the one-byte-per-bit
  table must reproduce exactly);
* **End-to-end metric snapshots** — a small RWB run under UDC and LDC must
  reproduce pinned virtual-elapsed time, I/O byte totals and maintenance
  counters exactly.

If a PR *intends* to change simulated behaviour (new cost model, policy
change), regenerate the literals below and say so in the PR description —
that is the contract.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.harness import experiments
from repro.harness.runner import run_workload as runner_run_workload
from repro.lsm import bloom
from repro.lsm.bloom import BloomFilter, key_hashes
from repro.lsm.config import LSMConfig
from repro.lsm.db import DB, WriteBatch
from repro.workload import spec as workloads

# ----------------------------------------------------------------------
# Golden values.  Regenerate ONLY for an intentional simulation change:
#   PYTHONPATH=src python tests/test_perf_golden.py --regen
# ----------------------------------------------------------------------
GOLDEN_BLOOM_SHA256 = (
    "8d3ff37179e1653ccdd7987129db68b97ab830b1c000664b320c1c7396bd9700"
)
GOLDEN_BLOOM_SIZE_BYTES = 625
GOLDEN_BLOOM_HASH_COUNT = 7

GOLDEN_BASE_HASHES = {
    b"00000000000000000000": (3297067555, 1323829123),
    b"key-42": (3615243989, 252445627),
    b"\x00\x01\x02": (139757951, 917513),
}

GOLDEN_RUN_OPS = 2500
GOLDEN_RUN_KEYS = 1000

GOLDEN_END_TO_END = {
    "UDC": {
        "elapsed_us": 77335.06300001382,
        "total_write_bytes": 7767981,
        "total_read_bytes": 11104938,
        "compaction_read_bytes": 5985252,
        "compaction_write_bytes": 5123898,
        "flush_count": 20,
        "compaction_count": 20,
        "link_count": 0,
        "merge_count": 0,
        "space_bytes": 1460511,
        "user_bytes_written": 1317303,
        "sstable_blocks_read": 1229,
        "bloom_negative_skips": 1772,
    },
    "LDC": {
        "elapsed_us": 72405.37650002119,
        "total_write_bytes": 6429618,
        "total_read_bytes": 9848709,
        "compaction_read_bytes": 4572126,
        "compaction_write_bytes": 3785535,
        "flush_count": 20,
        "compaction_count": 35,
        "link_count": 36,
        "merge_count": 35,
        "space_bytes": 2112318,
        "user_bytes_written": 1317303,
        "sstable_blocks_read": 1262,
        "bloom_negative_skips": 4978,
    },
}

#: Scheduler-on goldens (``bg_threads=1``): the same run with compaction
#: executing on a background thread.  Pinned separately because the
#: scheduler intentionally changes simulated timing — while the
#: scheduler-OFF run must remain byte-identical to GOLDEN_END_TO_END.
#: Re-pinned when memtable flushes moved onto the flush lane: flushes are
#: ``sched.tasks_*`` now, the writer pays only a wait for an unfinished
#: previous flush, and flush I/O takes channel time from the rounds, which
#: moves round captures and the slowdown count.  LDC's entry here and in
#: GOLDEN_END_TO_END was re-pinned when an LDC get began to stop at the
#: newest linked slice that holds the key (fewer block reads and Bloom
#: probes); with one thread the shorter gets leave fewer replay gaps, so
#: LDC takes more Level-0 slowdowns (ROADMAP item 11).
GOLDEN_SCHED_END_TO_END = {
    "UDC": {
        "elapsed_us": 177791.50186554878,
        "total_write_bytes": 5102838,
        "total_read_bytes": 8346078,
        "compaction_read_bytes": 3112668,
        "compaction_write_bytes": 2458755,
        "flush_count": 20,
        "compaction_count": 7,
        "link_count": 0,
        "merge_count": 0,
        "space_bytes": 1667952,
        "user_bytes_written": 1317303,
        "sstable_blocks_read": 1256,
        "bloom_negative_skips": 4156,
        "sched.tasks_enqueued": 27,
        "sched.tasks_completed": 27,
        "sched.chunks_executed": 1491,
        "sched.device_waits": 1195,
        "sched.stall_events": 0,
        "sched.slowdown_events": 115,
        "stall_time_us": 115000.0,
        "device_wait_us": 10985.446277306892,
    },
    "LDC": {
        "elapsed_us": 479527.700662934,
        "total_write_bytes": 4534218,
        "total_read_bytes": 7641621,
        "compaction_read_bytes": 2267109,
        "compaction_write_bytes": 1890135,
        "flush_count": 20,
        "compaction_count": 16,
        "link_count": 19,
        "merge_count": 16,
        "space_bytes": 2312388,
        "user_bytes_written": 1317303,
        "sstable_blocks_read": 1288,
        "bloom_negative_skips": 7223,
        "sched.tasks_enqueued": 36,
        "sched.tasks_completed": 35,
        "sched.chunks_executed": 1392,
        "sched.device_waits": 1046,
        "sched.stall_events": 0,
        "sched.slowdown_events": 419,
        "stall_time_us": 419000.0,
        "device_wait_us": 9482.93913355692,
    },
}

#: SCN-WH goldens (Table III: 70% puts, 30% 100-record scans) with a
#: 256 KB block cache, captured on the commit *before* ``DB.scan`` moved
#: to lazy level cursors.  The scan path's contract is that only host
#: work changed: the clock, the ``user_scan`` device counters and the
#: block cache's hit/miss/eviction history must stay exactly these.
GOLDEN_SCAN_OPS = 2500
GOLDEN_SCAN_KEYS = 4000
GOLDEN_SCAN_CACHE_BYTES = 256 * 1024

GOLDEN_SCAN_END_TO_END = {
    "UDC": {
        "elapsed_us": 156865.27650011788,
        "total_write_bytes": 17464005,
        "total_read_bytes": 103890033,
        "compaction_read_bytes": 14772537,
        "compaction_write_bytes": 13754286,
        "flush_count": 28,
        "compaction_count": 33,
        "link_count": 0,
        "merge_count": 0,
        "space_bytes": 5018598,
        "user_bytes_written": 1852227,
        "sstable_blocks_read": 0,
        "bloom_negative_skips": 0,
        "engine.scans": 741,
        "engine.scanned_records": 73575,
        "engine.activity.scan": 65369.248000118096,
        "device.read.user_scan.ops": 3433,
        "device.read.user_scan.bytes": 89117496,
        "device.read.user_scan.time_us": 61723.74799999832,
        "cache.hits": 1087,
        "cache.misses": 21509,
        "cache.evictions": 21274,
        "cache.evicted_bytes": 88140312,
    },
    "LDC": {
        "elapsed_us": 168301.48299974116,
        "total_write_bytes": 12673908,
        "total_read_bytes": 117403182,
        "compaction_read_bytes": 10034037,
        "compaction_write_bytes": 8964189,
        "flush_count": 28,
        "compaction_count": 67,
        "link_count": 79,
        "merge_count": 67,
        "space_bytes": 6884514,
        "user_bytes_written": 1852227,
        "sstable_blocks_read": 0,
        "bloom_negative_skips": 0,
        "engine.scans": 741,
        "engine.scanned_records": 73575,
        "engine.activity.scan": 98228.0724997419,
        "device.read.user_scan.ops": 7946,
        "device.read.user_scan.bytes": 107369145,
        "device.read.user_scan.time_us": 93414.5724999979,
        "cache.hits": 1671,
        "cache.misses": 25970,
        "cache.evictions": 25766,
        "cache.evicted_bytes": 106538328,
    },
}

#: Fingerprints of a fixed batched-API run (``write_batch`` fast path +
#: ``multi_get``) per policy × scheduler mode.  ``write_batch`` is *not*
#: equivalent to per-op puts (one WAL acquisition per batch, by design),
#: so its simulated effects are pinned here the same way the per-op run
#: is pinned above.  SHA-256 over the sorted counter dict + final clock.
GOLDEN_BATCHED_FINGERPRINTS = {
    ("UDC", 0): "8501fcb3605325805beb856cc8b6f65df1073ad84ffac22ca6067baab065237e",
    ("UDC", 1): "455e3ffb3c9ad38c00f5cca89a0cf67dc7b10e31d7e86a28c09c746a2cd1b610",
    ("LDC", 0): "5f96148dcbae73bc723c0cd5c571dd67f3347fbe7095fe085c198f9e58a118a5",
    ("LDC", 1): "9fa94a582c3cf64bbad980695d50cbb4365facfafc5b660df5281f3d8c25453a",
}

_POLICIES = {"UDC": "udc", "LDC": "ldc"}


def _golden_keyset():
    return [str(index).zfill(16).encode("ascii") for index in range(500)]


def _packed_bits(bf: BloomFilter) -> bytes:
    """The filter's bits packed little-endian, eight to a byte."""
    table = np.frombuffer(bf._flags, np.uint8)
    return np.packbits(table, bitorder="little").tobytes()


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
    for start in range(0, len(probe), 13):
        db.multi_get(probe[start:start + 13])
    db.sched.drain()
    if not bg_threads:
        # The zero-thread engine: no channel, and no sched.* key.
        assert db.sched.num_threads == 0 and db.device.channel is None
        assert not db.metrics().component("sched")
    return db


def _batched_fingerprint(policy_name: str, bg_threads: int) -> str:
    db = _batched_db(policy_name, bg_threads)
    payload = json.dumps(
        {"counters": db.registry.counters(), "t_us": db.clock.now()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class TestBloomGolden:
    def test_base_hashes_pinned(self):
        """The double-hash bases are platform-independent constants."""
        for key, expected in GOLDEN_BASE_HASHES.items():
            assert key_hashes(key) == expected

    def test_bit_pattern_pinned(self):
        """The whole filter byte array matches the golden digest."""
        bf = BloomFilter(_golden_keyset(), bits_per_key=10)
        assert bf.size_bytes == GOLDEN_BLOOM_SIZE_BYTES
        assert bf.hash_count == GOLDEN_BLOOM_HASH_COUNT
        digest = hashlib.sha256(_packed_bits(bf)).hexdigest()
        assert digest == GOLDEN_BLOOM_SHA256

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
        result = _run(policy_name)
        assert _snapshot(result) == GOLDEN_END_TO_END[policy_name]

    def test_runs_are_process_deterministic(self):
        """Two runs in the same process agree with each other (and golden)."""
        first = _snapshot(_run("LDC"))
        second = _snapshot(_run("LDC"))
        assert first == second == GOLDEN_END_TO_END["LDC"]

    @pytest.mark.parametrize("policy_name", ["UDC", "LDC"])
    def test_scheduler_off_is_byte_identical(self, policy_name):
        """``bg_threads=0`` must not perturb the simulation at all.

        The scheduler subsystem (device channel arbitration, clock capture
        mode, throttle hooks) was threaded through the device and DB hot
        paths; this pins the contract that none of it costs a single
        virtual microsecond — or moves a single byte — until enabled.
        """
        result = _run(policy_name, bg_threads=0)
        assert _snapshot(result) == GOLDEN_END_TO_END[policy_name]
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
        assert _scan_snapshot(result) == GOLDEN_SCAN_END_TO_END[policy_name]


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
        assert _sched_snapshot(result) == GOLDEN_SCHED_END_TO_END[policy_name]

    def test_sched_run_is_process_deterministic(self):
        first = _sched_snapshot(_run("LDC", bg_threads=1))
        second = _sched_snapshot(_run("LDC", bg_threads=1))
        assert first == second == GOLDEN_SCHED_END_TO_END["LDC"]

    def test_sched_changes_timing_not_contents(self):
        """Sanity on what the two golden layers mean: the scheduler shifts
        *when* device time is charged (elapsed differs) but the user bytes
        written — logical work — match the off-run exactly."""
        on = GOLDEN_SCHED_END_TO_END["LDC"]
        off = GOLDEN_END_TO_END["LDC"]
        assert on["user_bytes_written"] == off["user_bytes_written"]
        assert on["flush_count"] == off["flush_count"]
        assert on["elapsed_us"] != off["elapsed_us"]


class TestBatchedGolden:
    """The batched APIs are pinned as tightly as the per-op run.

    ``write_batch`` amortises WAL/memtable acquisition per batch (its
    virtual-time cost intentionally differs from N individual puts), so
    its simulated effects get their own fingerprints; ``multi_get`` must
    stay *identical* to a per-key ``get`` loop, which the differential
    test checks outright.
    """

    @pytest.mark.parametrize(
        "policy_name,bg_threads",
        [("UDC", 0), ("UDC", 1), ("LDC", 0), ("LDC", 1)],
    )
    def test_batched_run_fingerprint(self, policy_name, bg_threads):
        fingerprint = _batched_fingerprint(policy_name, bg_threads)
        assert fingerprint == GOLDEN_BATCHED_FINGERPRINTS[(policy_name, bg_threads)]

    @pytest.mark.parametrize("policy_name", ["UDC", "LDC"])
    def test_multi_get_identical_to_get_loop(self, policy_name):
        """Same values, same counters, same clock as per-key gets."""

        def _load(db):
            for index in range(300):
                db.put(
                    str(index % 120).zfill(16).encode("ascii"),
                    b"v%06d" % index,
                )

        keys = [str(index).zfill(16).encode("ascii") for index in range(150)]
        config = LSMConfig()
        batched = DB(config=config, policy=_POLICIES[policy_name])
        _load(batched)
        loop = DB(config=config, policy=_POLICIES[policy_name])
        _load(loop)
        got = batched.multi_get(keys)
        expected = [loop.get(key) for key in keys]
        assert got == expected
        assert batched.registry.counters() == loop.registry.counters()
        assert batched.clock.now() == loop.clock.now()


class TestChunkedDispatchDifferential:
    """Chunked runner dispatch must equal per-op dispatch exactly."""

    @pytest.mark.parametrize("policy_name", ["UDC", "LDC"])
    def test_chunked_equals_per_op(self, policy_name):
        # Imported here: ``--regen`` runs this file as a script, where a
        # relative import at module level would fail.
        from ._runner_oracle import run_workload_per_op

        spec = workloads.rwb(num_operations=1500, key_space=700)
        config = LSMConfig()
        chunked = runner_run_workload(spec, _POLICIES[policy_name], config=config)
        per_op = run_workload_per_op(spec, _POLICIES[policy_name], config=config)
        assert _snapshot(chunked) == _snapshot(per_op)
        assert list(chunked.latencies.values) == list(per_op.latencies.values)
        assert list(chunked.read_latencies.values) == list(
            per_op.read_latencies.values
        )
        assert list(chunked.write_latencies.values) == list(
            per_op.write_latencies.values
        )
        assert chunked.timeline.points() == per_op.timeline.points()
        assert chunked.metrics.counters == per_op.metrics.counters


def _regen() -> None:  # pragma: no cover - maintenance helper
    import json

    bf = BloomFilter(_golden_keyset(), bits_per_key=10)
    print("GOLDEN_BLOOM_SHA256 =", repr(hashlib.sha256(_packed_bits(bf)).hexdigest()))
    print("GOLDEN_BLOOM_SIZE_BYTES =", bf.size_bytes)
    print("GOLDEN_BLOOM_HASH_COUNT =", bf.hash_count)
    for key in GOLDEN_BASE_HASHES:
        print("base_hashes", key, key_hashes(key))
    for policy_name in _POLICIES:
        print(policy_name, json.dumps(_snapshot(_run(policy_name)), indent=4))
    for policy_name in _POLICIES:
        print(
            "scan", policy_name,
            json.dumps(_scan_snapshot(_run_scan(policy_name)), indent=4),
        )
    for policy_name in _POLICIES:
        print(
            "sched", policy_name,
            json.dumps(_sched_snapshot(_run(policy_name, bg_threads=1)), indent=4),
        )
    for policy_name in _POLICIES:
        for bg_threads in (0, 1):
            print(
                f'    ("{policy_name}", {bg_threads}): '
                f'"{_batched_fingerprint(policy_name, bg_threads)}",'
            )


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
