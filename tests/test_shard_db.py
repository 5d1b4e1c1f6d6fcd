"""ShardedDB must behave exactly like one store, only partitioned.

The contract under test: every written key is readable back whichever
partitioner routes it, cross-shard scans come back in global key order,
snapshots pin per-shard sequences, and the aggregate metric view is the
exact sum of the per-shard registries.
"""

from __future__ import annotations

import pytest

from repro import ShardedDB
from repro.errors import ConfigError, UnknownPolicyError
from repro.lsm.compaction.spec import get_spec
from repro.obs.aggregate import SHARD_PREFIX
from repro.shard.db import split_by_shard
from repro.shard.partition import HashPartitioner, make_partitioner
from repro.workload.ycsb import OP_PUT, Operation


def _key(index: int) -> bytes:
    return str(index).zfill(16).encode("ascii")


def _filled(partitioner: str, count: int = 600) -> ShardedDB:
    db = ShardedDB(
        num_shards=4,
        policy="udc",
        partitioner=partitioner,
        key_space=count,
    )
    for index in range(count):
        db.put(_key(index), b"value-%06d" % index)
    return db


@pytest.mark.parametrize("kind", ["hash", "range"])
class TestReadback:
    def test_every_written_key_readable(self, kind: str) -> None:
        db = _filled(kind)
        for index in range(600):
            assert db.get(_key(index)) == b"value-%06d" % index
        db.close()

    def test_overwrites_and_deletes_route_consistently(self, kind: str) -> None:
        db = _filled(kind)
        db.put(_key(5), b"updated")
        db.delete(_key(6))
        assert db.get(_key(5)) == b"updated"
        assert db.get(_key(6)) is None
        db.close()

    def test_logical_items_globally_ordered(self, kind: str) -> None:
        db = _filled(kind, count=300)
        items = db.logical_items()
        keys = [key for key, _ in items]
        assert keys == sorted(keys)
        assert len(keys) == 300
        db.close()


class TestScan:
    def test_cross_shard_scan_ordering(self) -> None:
        # Hash partitioning scatters adjacent keys across shards, so any
        # scan of consecutive keys exercises the cross-shard merge.
        db = _filled("hash")
        result = db.scan(_key(100), 50)
        keys = [key for key, _ in result]
        assert keys == [_key(index) for index in range(100, 150)]
        db.close()

    def test_scan_counts_and_tail(self) -> None:
        db = _filled("hash", count=200)
        assert len(db.scan(_key(0), 200)) == 200
        tail = db.scan(_key(195), 50)
        assert [key for key, _ in tail] == [_key(i) for i in range(195, 200)]
        db.close()

    def test_scan_skips_deleted_keys(self) -> None:
        db = _filled("range", count=100)
        db.delete(_key(11))
        keys = [key for key, _ in db.scan(_key(10), 5)]
        assert keys == [_key(10), _key(12), _key(13), _key(14), _key(15)]
        db.close()


class TestSnapshot:
    def test_snapshot_pins_per_shard_sequences(self) -> None:
        db = _filled("hash", count=100)
        snap = db.snapshot()
        assert snap.num_shards == 4
        assert sum(snap.sequences) == 100  # one sequence per write
        db.put(_key(3), b"later")
        later = db.snapshot()
        owner = db.shard_of(_key(3))
        assert later.sequence_of(owner) == snap.sequence_of(owner) + 1
        for index in range(4):
            if index != owner:
                assert later.sequence_of(index) == snap.sequence_of(index)
        db.close()


class TestMetrics:
    def test_aggregate_counters_equal_sum_of_shards(self) -> None:
        db = _filled("hash")
        for index in range(0, 600, 3):
            db.get(_key(index))
        per_shard = db.shard_metrics()
        aggregate = db.metrics()
        keys = set()
        for snapshot in per_shard:
            keys.update(snapshot.counters)
        for key in keys:
            assert aggregate.counters[key] == sum(
                snapshot.counters.get(key, 0) for snapshot in per_shard
            ), key
        assert aggregate.t_us == max(s.t_us for s in per_shard)
        db.close()

    def test_combined_view_namespaces_every_shard(self) -> None:
        db = _filled("hash", count=200)
        combined = db.combined_metrics()
        for index, snapshot in enumerate(db.shard_metrics()):
            scoped = combined.component(f"{SHARD_PREFIX}.{index}")
            assert scoped == dict(snapshot.counters)
        # Aggregate keys survive alongside the namespaced ones.
        assert combined.counters["engine.puts"] == 200
        db.close()


class TestConstruction:
    def test_partitioner_shard_count_must_match(self) -> None:
        with pytest.raises(ConfigError):
            ShardedDB(
                num_shards=4,
                policy="udc",
                partitioner=HashPartitioner(2),
            )

    def test_rejects_a_policy_instance_shared_by_shards(self) -> None:
        instance = get_spec("ldc").build()
        with pytest.raises(ConfigError, match="cannot be shared across shards"):
            ShardedDB(num_shards=2, policy=instance)
        with pytest.raises(UnknownPolicyError):
            ShardedDB(num_shards=2, policy="nope")
        # One shard is a single store: the instance is its policy.
        assert ShardedDB(num_shards=1, policy=instance).shards[0].policy is instance

    def test_policies_are_independent_instances(self) -> None:
        db = ShardedDB(num_shards=3, policy="ldc")
        policies = [shard.policy for shard in db.shards]
        assert len({id(policy) for policy in policies}) == 3
        db.close()

    def test_context_manager_closes_all_shards(self) -> None:
        with ShardedDB(num_shards=2, policy="udc") as db:
            db.put(b"k" * 16, b"v")
        assert all(shard._closed for shard in db.shards)


class TestSplitByShard:
    def test_split_preserves_order_and_ownership(self) -> None:
        part = make_partitioner("hash", 3)
        ops = [Operation(OP_PUT, _key(index), b"v") for index in range(100)]
        buckets = split_by_shard(ops, part)
        assert sum(len(bucket) for bucket in buckets) == 100
        for shard, bucket in enumerate(buckets):
            assert all(part.shard_of(op.key) == shard for op in bucket)
            indexes = [int(op.key) for op in bucket]
            assert indexes == sorted(indexes)  # insertion order kept
