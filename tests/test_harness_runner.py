"""Integration tests for the workload runner and reports."""

import pickle

import pytest

from repro.harness.report import format_table, mib, paper_row
from repro.harness.runner import build_db, run_workload
from repro.lsm.config import LSMConfig
from repro.workload import ro, rwb, scn_rwb, wo, ycsb_f

SMALL = LSMConfig(
    memtable_bytes=4096,
    sstable_target_bytes=4096,
    block_bytes=1024,
    fan_out=4,
    level1_capacity_bytes=8192,
    slicelink_threshold=4,
)


def small_rwb(**overrides):
    defaults = dict(
        num_operations=2000, key_space=500, value_bytes=64, preload_keys=500
    )
    defaults.update(overrides)
    return rwb(**defaults)


class TestRunWorkload:
    def test_basic_run_produces_metrics(self):
        result = run_workload(small_rwb(), "udc", config=SMALL)
        assert result.operations == 2000
        assert result.elapsed_us > 0
        assert result.throughput_ops_s > 0
        assert result.mean_latency_us > 0
        assert len(result.latencies) == 2000
        assert result.workload == "RWB"
        assert result.policy == "udc"

    def test_latency_split_by_kind(self):
        result = run_workload(small_rwb(), "udc", config=SMALL)
        assert len(result.write_latencies) + len(result.read_latencies) == 2000
        assert len(result.write_latencies) == pytest.approx(1000, abs=150)

    def test_preload_not_measured(self):
        """Loaded keys must not count toward measured operations or I/O."""
        result = run_workload(
            ro(num_operations=500, key_space=300, preload_keys=300, value_bytes=64),
            "udc",
            config=SMALL,
        )
        assert result.operations == 500
        assert result.user_bytes_written == 0  # read-only measured phase
        assert len(result.write_latencies) == 0

    def test_scan_workload(self):
        result = run_workload(
            scn_rwb(
                num_operations=400,
                key_space=300,
                preload_keys=300,
                value_bytes=64,
                scan_length=10,
            ),
            "udc",
            config=SMALL,
        )
        assert len(result.scan_latencies) > 0

    def test_rmw_workload_runs(self):
        result = run_workload(
            ycsb_f(num_operations=300, key_space=200, preload_keys=200, value_bytes=64),
            "udc",
            config=SMALL,
        )
        assert result.operations == 300

    def test_ldc_policy_counters_surface(self):
        result = run_workload(
            small_rwb(num_operations=4000), "ldc", config=SMALL
        )
        assert result.policy == "ldc"
        assert result.link_count > 0
        assert result.final_threshold == SMALL.slicelink_threshold

    def test_deterministic(self):
        a = run_workload(small_rwb(), "udc", config=SMALL)
        b = run_workload(small_rwb(), "udc", config=SMALL)
        assert a.elapsed_us == b.elapsed_us
        assert a.compaction_bytes_total == b.compaction_bytes_total
        assert a.latencies.percentile(99) == b.latencies.percentile(99)

    def test_summary_keys(self):
        result = run_workload(small_rwb(), "udc", config=SMALL)
        summary = result.summary()
        assert {"throughput_ops_s", "p999_us", "write_amplification"} <= set(summary)

    def test_write_only_counts_user_bytes(self):
        result = run_workload(
            wo(num_operations=1000, key_space=300, value_bytes=64),
            "udc",
            config=SMALL,
        )
        assert result.user_bytes_written == 1000 * (16 + 64 + 13)

    def test_timeline_collected(self):
        result = run_workload(
            small_rwb(), "udc", config=SMALL, timeline_bucket_us=10_000
        )
        assert len(result.timeline.points()) >= 1


@pytest.mark.parametrize("policy", ["udc", "ldc"])
@pytest.mark.parametrize("bg_threads", [0, 1])
def test_run_result_fields_are_views_of_the_snapshot(policy, bg_threads):
    """The 17 counter-backed fields, recomputed here from the raw counter
    dict, are what ``result.metrics`` derives — one ledger, read through,
    which also survives the trip back from a worker process."""
    spec = rwb(num_operations=1_500, key_space=500)
    db = build_db(policy, config=LSMConfig(bg_threads=bg_threads))
    result = run_workload(spec, policy, db=db)
    counters, counter = db.registry.counters(), db.registry.counter

    def device_bytes(direction: str) -> int:
        return sum(
            value for key, value in counters.items()
            if key.startswith(f"device.{direction}.") and key.endswith(".bytes")
        )

    activity = {
        key.rpartition(".")[2]: value for key, value in sorted(counters.items())
        if key.startswith("engine.activity.")
    }
    copied = {
        "compaction_read_bytes": counter("device.read.compaction_read.bytes"),
        "compaction_write_bytes": counter("device.write.compaction_write.bytes"),
        "total_read_bytes": device_bytes("read"),
        "total_write_bytes": device_bytes("write"),
        "user_bytes_written": counter("engine.user_bytes_written"),
        "write_amplification": (
            device_bytes("write") / counter("engine.user_bytes_written")
        ),
        "flush_count": counter("engine.flush_count"),
        "compaction_count": counter("engine.compaction_count"),
        "link_count": counter("engine.link_count"),
        "merge_count": counter("engine.merge_count"),
        "trivial_moves": counter("engine.trivial_moves"),
        "stall_events": counter("engine.stall_events"),
        "sstable_blocks_read": counter("engine.sstable_blocks_read"),
        "bloom_negative_skips": counter("engine.bloom_negative_skips"),
        "activity_share": {
            name: value / sum(activity.values()) for name, value in activity.items()
        },
        "stall_time_us": float(counter("engine.stall_time_us")),
        "device_wait_us": float(counter("sched.device_wait_us")),
    }
    assert copied["flush_count"] > 0 and copied["write_amplification"] > 1.0
    clone = pickle.loads(pickle.dumps(result))
    for name, value in copied.items():
        assert getattr(result, name) == value, name
        assert type(getattr(result, name)) is type(value), name
        assert getattr(clone, name) == value, name
    snapshot = result.metrics
    assert result.compaction_read_bytes == snapshot.compaction_bytes_read
    assert result.write_amplification == snapshot.write_amplification
    assert result.activity_share == snapshot.activity_share()


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [("alpha", 1.0), ("b", 123456.0)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "alpha" in lines[3]

    def test_mib(self):
        assert mib(2**20) == 1.0

    def test_paper_row(self):
        row = paper_row("P99.9", "469.66us", "123.4us")
        assert "paper" in row and "measured" in row
