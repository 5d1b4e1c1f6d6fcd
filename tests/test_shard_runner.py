"""The sharded runner's determinism contract, asserted bit for bit.

Serial and parallel execution of the same sharded run must agree on
every aggregated number — metric sums, latency samples, timeline
buckets, per-shard virtual times — because each shard simulates its own
device and the folds are order-fixed.  Wall-clock time is the only field
allowed to differ.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro import DeviceConfig, FlashSpec
from repro.errors import ConfigError, UnknownPolicyError
from repro.harness.runner import RunResult, run_workload
from repro.harness.experiments import GridTask, run_grid
from repro.harness.latency import LatencyRecorder, LatencyTimeline
from repro.lsm.compaction.spec import get_spec
from repro.lsm.config import LSMConfig
from repro.obs.snapshot import MetricsSnapshot
from repro.shard.runner import run_sharded_workload
from repro.workload import spec as workloads
from repro.workload.ycsb import OP_PUT, Operation

TINY_OPS = 2000
TINY_KEYS = 800


def _tiny_spec():
    return workloads.rwb(num_operations=TINY_OPS, key_space=TINY_KEYS)


class TestSerialParallelIdentity:
    def test_serial_vs_parallel_bit_identical(self) -> None:
        """The golden determinism test: workers change nothing but wall time."""
        spec_item = _tiny_spec()
        serial = run_sharded_workload(
            spec_item, "udc", num_shards=4, workers=1,
            config=LSMConfig(),
        )
        parallel = run_sharded_workload(
            spec_item, "udc", num_shards=4, workers=4,
            config=LSMConfig(),
        )
        assert serial.fingerprint() == parallel.fingerprint()

    def test_ldc_policy_also_identical(self) -> None:
        spec_item = _tiny_spec()
        serial = run_sharded_workload(
            spec_item, get_spec("ldc").derive(threshold=5), num_shards=3, workers=1,
            config=LSMConfig(),
        )
        parallel = run_sharded_workload(
            spec_item, get_spec("ldc").derive(threshold=5), num_shards=3, workers=3,
            config=LSMConfig(),
        )
        assert serial.fingerprint() == parallel.fingerprint()

    def test_range_partitioner_identical(self) -> None:
        spec_item = _tiny_spec()
        serial = run_sharded_workload(
            spec_item, "udc", num_shards=4, partitioner="range",
            workers=1, config=LSMConfig(),
        )
        parallel = run_sharded_workload(
            spec_item, "udc", num_shards=4, partitioner="range",
            workers=2, config=LSMConfig(),
        )
        assert serial.fingerprint() == parallel.fingerprint()


def _digest(result) -> str:
    return hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()


#: SHA-256 of ``repr(fingerprint())`` captured on PR 20's ``src/``, before
#: the sharded runner became a grid of runs folded into a ``RunResult``.
#: ``ldc5-hash-3`` was re-pinned once (PR 24): the PR 20 literal enshrined
#: the fold bug that summed level gauges, so three shards at threshold 5
#: read ``policy.ldc.threshold`` 15.  Nothing else in it moved —
#: ``TestGaugeFold`` re-derives the old literal from the new result.
PINNED_FINGERPRINTS = {
    "udc-hash-4": "00440693790a16fec599e36f3ce012e795f74d056186307c381584e11f1be680",
    "ldc5-hash-3": "fde9756386e920c24ca6f86f131d32563bd3c9e60e56e38ee9c722a7eb000315",
    "udc-range-4": "a28e83ee0f50e810debcb680e48abbdd6f5a8dc4fd28ea8667623cd99123a05e",
}
#: What ``ldc5-hash-3`` was while the fold summed ``policy.ldc.threshold``.
SUMMED_THRESHOLD_LDC5_HASH_3 = (
    "4fcf422d20470aeba3bcb804c35fcf0b5aadc36e6ebd94403d149cabd104a82e"
)


class TestPinnedFingerprints:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize(
        "case, policy, num_shards, partitioner",
        [
            ("udc-hash-4", "udc", 4, "hash"),
            ("ldc5-hash-3", get_spec("ldc").derive(threshold=5), 3, "hash"),
            ("udc-range-4", "udc", 4, "range"),
        ],
    )
    def test_fingerprint_is_what_the_parent_computed(
        self, case, policy, num_shards, partitioner, workers
    ) -> None:
        result = run_sharded_workload(
            _tiny_spec(), policy, num_shards=num_shards,
            partitioner=partitioner, workers=workers, config=LSMConfig(),
        )
        assert _digest(result) == PINNED_FINGERPRINTS[case]


class TestGaugeFold:
    """A fold sums sizes and takes the max of levels (regression: it summed
    every gauge, so a 3-shard run at threshold 5 reported threshold 15 and
    a sharded flash run's ``max_erase_count`` was the sum of the maxima)."""

    def test_threshold_of_a_fleet_is_not_the_sum_of_its_shards(self) -> None:
        result = run_sharded_workload(
            _tiny_spec(), get_spec("ldc").derive(threshold=5), num_shards=3,
            config=LSMConfig(),
        )
        per_shard = [r.metrics.gauges["policy.ldc.threshold"] for r in result.shard_results]
        assert per_shard == [5, 5, 5]
        assert result.metrics.gauges["policy.ldc.threshold"] == 5
        frozen = "policy.ldc.frozen_space_bytes"  # a size: still summed
        assert result.metrics.gauges[frozen] == sum(
            r.metrics.gauges[frozen] for r in result.shard_results
        )
        # The one literal that moved, moved for this and nothing else:
        # with the gauge put back to the sum the parent's digest returns.
        summed = MetricsSnapshot(
            t_us=result.metrics.t_us,
            counters=result.metrics.counters,
            gauges={**result.metrics.gauges, "policy.ldc.threshold": sum(per_shard)},
        )
        assert _digest(dataclasses.replace(result, metrics=summed)) == (
            SUMMED_THRESHOLD_LDC5_HASH_3
        )

    def test_max_erase_count_of_a_fleet_is_its_worst_block(self) -> None:
        flash = FlashSpec(page_bytes=4096, pages_per_block=32, logical_bytes=1 << 20)
        skewed = workloads.wo(num_operations=6000, key_space=600, distribution="zipf")
        result = run_sharded_workload(
            skewed, "udc", num_shards=3, partitioner="range",
            config=LSMConfig(), profile=DeviceConfig(flash=flash),
        )
        worst = [r.max_erase_count for r in result.shard_results]
        assert len(set(worst)) > 1 and min(worst) > 0, worst
        assert result.max_erase_count == max(worst) < sum(worst)
        assert result.blocks_erased == sum(r.blocks_erased for r in result.shard_results)
        live = "flash.live_pages"  # an occupancy: still summed
        assert result.metrics.gauges[live] == sum(
            r.metrics.gauges[live] for r in result.shard_results
        )


class TestAggregation:
    def test_aggregate_equals_sum_of_shards(self) -> None:
        report = run_sharded_workload(
            _tiny_spec(), "udc", num_shards=4, config=LSMConfig()
        )
        assert report.operations == sum(report.shard_operations)
        assert report.operations == TINY_OPS
        snapshots = [result.metrics for result in report.shard_results]
        for key, value in report.metrics.counters.items():
            assert value == sum(s.counters.get(key, 0) for s in snapshots), key
        assert report.elapsed_us == max(
            result.elapsed_us for result in report.shard_results
        )
        assert len(report.latencies) == TINY_OPS

    def test_timeline_merge_counts(self) -> None:
        report = run_sharded_workload(
            _tiny_spec(), "udc", num_shards=2, config=LSMConfig()
        )
        merged_ops = sum(point.count for point in report.timeline.points())
        assert merged_ops == TINY_OPS

    def test_round_bytes_fold_in_shard_order(self) -> None:
        report = run_sharded_workload(
            _tiny_spec(), "udc", num_shards=2, config=LSMConfig()
        )
        first, second = report.shard_results
        assert first.round_bytes and second.round_bytes
        assert report.round_bytes == first.round_bytes + second.round_bytes

    def test_one_shard_matches_unsharded_runner(self) -> None:
        """A 1-shard 'fleet' is measured exactly like a standalone store."""
        spec_item = _tiny_spec()
        sharded = run_sharded_workload(
            spec_item, "udc", num_shards=1, config=LSMConfig()
        )
        plain = run_workload(spec_item, "udc", config=LSMConfig())
        assert sharded.operations == plain.operations
        assert sharded.elapsed_us == plain.elapsed_us
        assert dict(sharded.metrics.counters) == dict(plain.metrics.counters)
        assert tuple(sharded.latencies.values) == tuple(plain.latencies.values)


    def test_fold_of_one_shard_is_the_unsharded_result(self) -> None:
        """Every stored field and every derived property, ``shard_results``
        aside: the fold returns the type it folds, not a report about it."""
        plain = run_workload(_tiny_spec(), "ldc", config=LSMConfig(bg_threads=1))
        folded = RunResult.fold([plain])
        assert folded.shard_results == [plain] and plain.shard_results == []

        def comparable(value):
            if isinstance(value, LatencyRecorder):
                return (tuple(value.values), len(value), len(value) and value.mean())
            if isinstance(value, LatencyTimeline):
                return (value.bucket_us, value.points())
            return value

        names = [field.name for field in dataclasses.fields(RunResult)] + [
            name for name, value in vars(RunResult).items()
            if isinstance(value, property)
        ]
        assert len(names) > 40
        for name in names:
            if name in ("shard_results", "shard_operations", "combined_metrics"):
                continue
            assert comparable(getattr(folded, name)) == comparable(
                getattr(plain, name)
            ), name
        assert folded.summary() == plain.summary()


class TestShardTask:
    """A shard's task is a ``GridTask`` carrying its slice of the streams."""

    def test_task_pickles_with_operations(self) -> None:
        put = Operation(OP_PUT, b"k" * 16, b"v")
        task = GridTask(
            "shard 1",
            _tiny_spec(),
            get_spec("ldc").derive(threshold=7),
            LSMConfig(),
            preload=(put,),
            operations=(put, put),
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.policy.param_dict()["threshold"] == 7
        (result,) = run_grid([clone])
        assert result.operations == 2  # the slice ran, not the spec's stream
        assert result.metrics.counters["engine.puts"] == 2

    def test_rejects_bad_worker_count(self) -> None:
        with pytest.raises(ConfigError):
            run_sharded_workload(_tiny_spec(), "udc", num_shards=2, workers=0)

    def test_rejects_mismatched_partitioner(self) -> None:
        from repro.shard.partition import HashPartitioner

        with pytest.raises(ConfigError):
            run_sharded_workload(
                _tiny_spec(), "udc", num_shards=4,
                partitioner=HashPartitioner(2),
            )

    def test_rejects_a_policy_instance_shared_by_shards(self) -> None:
        """What ``resolve_factory`` used to refuse by accident."""
        with pytest.raises(ConfigError, match="cannot be shared across shards"):
            run_sharded_workload(
                _tiny_spec(), get_spec("ldc").build(), num_shards=2
            )
        with pytest.raises(UnknownPolicyError):
            run_sharded_workload(_tiny_spec(), "nope", num_shards=2)
