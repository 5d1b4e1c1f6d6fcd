"""Sharded multi-store engine: N independent DBs behind one API.

The scaling layer on top of :class:`~repro.lsm.db.DB`:

* :mod:`repro.shard.partition` — deterministic keyspace partitioners
  (hash via CRC-32, range via split points);
* :mod:`repro.shard.db` — :class:`ShardedDB`, the single-store facade
  (routed put/get/delete, k-way merged scans, per-shard-sequence
  snapshots, aggregated metrics);
* :mod:`repro.shard.runner` — shard-parallel workload execution: a grid
  of runs folded, bit-identically for serial and parallel execution,
  into one :class:`~repro.harness.runner.RunResult`.

Quickstart
----------
>>> from repro.shard import ShardedDB
>>> db = ShardedDB(num_shards=4, policy="ldc")
>>> db.put(b"user1", b"hello")
>>> db.get(b"user1")
b'hello'
"""

from .db import ShardedDB, ShardedSnapshot, split_by_shard
from .partition import (
    HashPartitioner,
    PARTITIONER_KINDS,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from .runner import run_sharded_workload

__all__ = [
    "ShardedDB",
    "ShardedSnapshot",
    "split_by_shard",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "make_partitioner",
    "PARTITIONER_KINDS",
    "run_sharded_workload",
]
