"""Shard-parallel workload execution: a sharded run is a grid of runs.

1. generate the workload trace **once** on the driver (the trace is a
   function of the spec's seed alone, so it is identical however the run
   executes) and split the preload and measured streams by owning shard
   (:func:`~repro.shard.db.split_by_shard` — order-preserving, pure);
2. one :class:`~repro.harness.experiments.GridTask` per shard carries its
   slice, so a shard is measured by the very protocol a standalone store
   is (:func:`~repro.harness.runner.run_workload`), in-process or fanned
   out by :func:`~repro.harness.experiments.run_grid`;
3. :meth:`RunResult.fold <repro.harness.runner.RunResult.fold>` makes the
   per-shard results one result of the same type.

The determinism contract: each shard simulates its own device and
virtual clock and touches nothing shared, so the fold is **bit-identical**
for serial and parallel execution — the only thing the worker count may
change is wall-clock time.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from .db import per_shard_policy, split_by_shard
from .partition import Partitioner, make_partitioner
from ..errors import ConfigError
from ..harness.experiments import GridTask, run_grid
from ..harness.runner import RunResult
from ..lsm.config import LSMConfig
from ..ssd.flash import DeviceConfig
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile
from ..workload.spec import WorkloadSpec
from ..workload.ycsb import WorkloadGenerator


def run_sharded_workload(
    spec: WorkloadSpec,
    policy: object,
    num_shards: int,
    partitioner: Union[str, Partitioner] = "hash",
    workers: int = 1,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    timeline_bucket_us: float = 1_000_000.0,
) -> RunResult:
    """Run one workload across ``num_shards`` engines, possibly in parallel.

    ``policy`` is a registered policy name or a
    :class:`~repro.lsm.compaction.spec.PolicySpec`; ``partitioner`` a kind
    name (``"hash"`` / ``"range"``) or a pre-built :class:`Partitioner`
    covering ``num_shards``.  ``workers`` bounds the process fan-out; 1
    executes every shard in-process.  The result's deterministic content
    (:meth:`RunResult.fingerprint`) is identical for any ``workers`` value.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    policy = per_shard_policy(policy, num_shards)
    partitioner = make_partitioner(
        partitioner, num_shards, key_space=spec.key_space, key_bytes=spec.key_bytes
    )
    generator = WorkloadGenerator(spec)
    preload = split_by_shard(generator.preload_operations(), partitioner)
    measured = split_by_shard(generator.operations(), partitioner)
    tasks = [
        GridTask(
            f"shard {index}", spec, policy, config, profile, timeline_bucket_us,
            preload=tuple(preload[index]), operations=tuple(measured[index]),
        )
        for index in range(num_shards)
    ]
    start = time.perf_counter()
    results = run_grid(tasks, workers=workers)
    wall_s = time.perf_counter() - start
    return RunResult.fold(
        results, partitioner=partitioner.describe(), workers=workers, wall_s=wall_s
    )
