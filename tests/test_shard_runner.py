"""The sharded runner's determinism contract, asserted bit for bit.

Serial and parallel execution of the same sharded run must agree on
every aggregated number — metric sums, latency samples, timeline
buckets, per-shard virtual times — because each shard simulates its own
device and the folds are order-fixed.  Wall-clock time is the only field
allowed to differ.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.harness.runner import run_workload
from repro.lsm.compaction.spec import get_spec, resolve_factory
from repro.lsm.config import LSMConfig
from repro.shard.runner import ShardTask, run_sharded_workload
from repro.workload import spec as workloads

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


class TestShardTask:
    def test_task_pickles_with_operations(self) -> None:
        task = ShardTask(
            shard_index=1,
            workload_name="RWB",
            preload=(),
            operations=(),
            factory=resolve_factory(get_spec("ldc").derive(threshold=7)),
            config=LSMConfig(),
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.shard_index == 1
        assert clone.factory.spec.param_dict()["threshold"] == 7

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
