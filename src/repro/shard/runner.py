"""Shard-parallel workload execution with deterministic aggregation.

The measurement protocol for a sharded run:

1. generate the workload trace **once** on the driver (the trace is a
   function of the spec's seed alone, so it is identical however the run
   executes);
2. split the preload and measured streams by owning shard
   (:func:`~repro.shard.db.split_by_shard` — order-preserving, pure);
3. build one picklable :class:`ShardTask` per shard and execute them —
   in-process when ``workers`` is 1, else fanned out over a
   ``ProcessPoolExecutor`` exactly like the PR 2 experiment grid
   (``executor.map`` preserves shard order);
4. fold the per-shard results into one :class:`ShardedRunReport`:
   counter-wise metric sums, histogram/recorder merges, bucket-wise
   timeline merges, with every fold key-sorted or shard-ordered.

The determinism contract: each shard simulates its own device and
virtual clock and touches nothing shared, so steps 3–4 produce
**bit-identical** aggregates for serial and parallel execution — the only
thing the worker count may change is wall-clock time.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .db import PolicyFactory, split_by_shard
from .partition import Partitioner, make_partitioner
from ..errors import ConfigError
from ..harness.latency import LatencyRecorder, LatencyTimeline
from ..harness.runner import RunResult, execute_operations, _merge_recorders
from ..lsm.compaction.spec import resolve_factory
from ..lsm.config import LSMConfig
from ..lsm.db import DB
from ..obs.aggregate import aggregate_snapshots, combined_view
from ..obs.snapshot import MetricsSnapshot
from ..ssd.flash import DeviceConfig
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile
from ..workload.spec import WorkloadSpec
from ..workload.ycsb import Operation, WorkloadGenerator


@dataclass(frozen=True)
class ShardTask:
    """One shard's slice of a sharded run — picklable end to end.

    Operations are plain ``NamedTuple``s of bytes, factories follow the
    grid's picklable-factory pattern, and the resulting ``RunResult``
    ships back whole, exactly like a :class:`~repro.harness.experiments.
    GridTask` round trip.
    """

    shard_index: int
    workload_name: str
    preload: Tuple[Operation, ...]
    operations: Tuple[Operation, ...]
    factory: PolicyFactory
    config: Optional[LSMConfig] = None
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE
    timeline_bucket_us: float = 1_000_000.0


def _run_shard_task(task: ShardTask) -> RunResult:
    """Top-level worker entry point (must be importable for pickling).

    Mirrors ``run_workload``'s protocol — preload, drain maintenance,
    reset, measure — through the identical
    :func:`~repro.harness.runner.execute_operations` loop, so one shard
    of a sharded run is measured exactly like a standalone store.
    """
    db = DB(
        config=task.config if task.config is not None else LSMConfig(),
        policy=task.factory(),
        profile=task.profile,
    )
    for operation in task.preload:
        db.put(operation.key, operation.value)
    db.policy.maybe_compact()
    db.reset_measurements()
    return execute_operations(
        db,
        task.operations,
        workload_name=task.workload_name,
        timeline_bucket_us=task.timeline_bucket_us,
    )


@dataclass
class ShardedRunReport:
    """Everything measured during one sharded run, per shard and folded."""

    workload: str
    policy: str
    partitioner: str
    num_shards: int
    workers: int
    operations: int
    #: Slowest shard's measured virtual time — the parallel-completion
    #: semantics: the run is done when its last shard is.
    elapsed_us: float
    #: Real (host) seconds spent executing the shard tasks; the only
    #: field that may differ between serial and parallel execution.
    wall_s: float
    shard_results: List[RunResult] = field(default_factory=list)
    #: Counter-wise sums under the original keys (``engine.puts`` is the
    #: fleet total).
    metrics: Optional[MetricsSnapshot] = None
    #: Aggregate plus per-shard ``shard.<i>.`` namespaces.
    combined_metrics: Optional[MetricsSnapshot] = None
    latencies: Optional[LatencyRecorder] = None
    write_latencies: Optional[LatencyRecorder] = None
    read_latencies: Optional[LatencyRecorder] = None
    scan_latencies: Optional[LatencyRecorder] = None
    timeline: Optional[LatencyTimeline] = None

    @property
    def throughput_ops_s(self) -> float:
        """Operations per simulated second (virtual completion time)."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.operations / (self.elapsed_us / 1e6)

    @property
    def write_amplification(self) -> float:
        return self.metrics.write_amplification if self.metrics else 0.0

    @property
    def device_write_amplification(self) -> float:
        """Fleet device WA over the summed counters (1.0 without flash).

        Both numerator (programmed bytes + stream remainders) and
        denominator (host write bytes) sum correctly across shards, so
        the aggregate snapshot's ratio is the fleet ratio.  Per-shard
        wear detail (e.g. max erase counts, which do *not* sum) lives in
        ``combined_metrics``'s ``shard.<i>.`` namespaces.
        """
        return self.metrics.device_write_amplification if self.metrics else 1.0

    @property
    def total_write_amplification(self) -> float:
        return self.metrics.total_write_amplification if self.metrics else 0.0

    @property
    def shard_operations(self) -> List[int]:
        return [result.operations for result in self.shard_results]

    def fingerprint(self) -> tuple:
        """Every deterministic aggregate, for bit-identity assertions.

        Excludes ``wall_s`` (host time) and nothing else: if any of this
        differs between a serial and a parallel run, the determinism
        contract is broken.
        """
        assert self.metrics is not None and self.latencies is not None
        return (
            self.workload,
            self.policy,
            self.partitioner,
            self.num_shards,
            self.operations,
            self.elapsed_us,
            tuple(self.shard_operations),
            tuple(result.elapsed_us for result in self.shard_results),
            tuple(sorted(self.metrics.counters.items())),
            tuple(sorted(self.metrics.gauges.items())),
            tuple(self.latencies.values),
            tuple(
                (point.start_us, point.count, point.mean_latency_us,
                 point.max_latency_us)
                for point in self.timeline.points()
            ) if self.timeline is not None else (),
        )

    def summary(self) -> Dict[str, float]:
        return {
            "throughput_ops_s": self.throughput_ops_s,
            "write_amplification": self.write_amplification,
            "elapsed_virtual_s": self.elapsed_us / 1e6,
            "wall_s": self.wall_s,
            "num_shards": float(self.num_shards),
            "workers": float(self.workers),
        }


def run_sharded_workload(
    spec: WorkloadSpec,
    policy_factory: PolicyFactory,
    num_shards: int,
    partitioner: Union[str, Partitioner] = "hash",
    workers: int = 1,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    timeline_bucket_us: float = 1_000_000.0,
) -> ShardedRunReport:
    """Run one workload across ``num_shards`` engines, possibly in parallel.

    ``policy_factory`` may be a zero-arg factory, a registered policy
    name, or a :class:`~repro.lsm.compaction.spec.PolicySpec`.
    ``partitioner`` is a kind name (``"hash"`` / ``"range"``) or a
    pre-built :class:`Partitioner` covering ``num_shards``.  ``workers``
    bounds the process fan-out; 1 executes every shard in-process.  The
    report's deterministic content (:meth:`ShardedRunReport.fingerprint`)
    is identical for any ``workers`` value.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    policy_factory = resolve_factory(policy_factory)
    if isinstance(partitioner, str):
        partitioner = make_partitioner(
            partitioner, num_shards, key_space=spec.key_space,
            key_bytes=spec.key_bytes,
        )
    if partitioner.num_shards != num_shards:
        raise ConfigError(
            f"partitioner covers {partitioner.num_shards} shards, "
            f"run requested {num_shards}"
        )

    generator = WorkloadGenerator(spec)
    preload_buckets = split_by_shard(
        list(generator.preload_operations()), partitioner
    )
    measured_buckets = split_by_shard(list(generator.operations()), partitioner)
    tasks = [
        ShardTask(
            shard_index=index,
            workload_name=spec.name,
            preload=tuple(preload_buckets[index]),
            operations=tuple(measured_buckets[index]),
            factory=policy_factory,
            config=config,
            profile=profile,
            timeline_bucket_us=timeline_bucket_us,
        )
        for index in range(num_shards)
    ]

    start = time.perf_counter()
    if workers == 1 or num_shards == 1:
        results = [_run_shard_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, num_shards)) as pool:
            results = list(pool.map(_run_shard_task, tasks))
    wall_s = time.perf_counter() - start

    return merge_shard_results(
        results,
        workload=spec.name,
        partitioner=partitioner.describe(),
        workers=workers,
        wall_s=wall_s,
        timeline_bucket_us=timeline_bucket_us,
    )


def merge_shard_results(
    results: List[RunResult],
    workload: str,
    partitioner: str,
    workers: int,
    wall_s: float,
    timeline_bucket_us: float = 1_000_000.0,
) -> ShardedRunReport:
    """Fold per-shard RunResults into one report, deterministically.

    Every fold is order-fixed (shard order) and value-commutative
    (sums, histogram adds, bucket maxes), so the merged report depends
    only on the per-shard results — not on who computed them or when.
    """
    if not results:
        raise ConfigError("cannot merge zero shard results")
    snapshots = [result.metrics for result in results]
    assert all(snapshot is not None for snapshot in snapshots)
    timeline = LatencyTimeline(bucket_us=timeline_bucket_us)
    for result in results:
        timeline.merge(result.timeline)
    return ShardedRunReport(
        workload=workload,
        policy=results[0].policy,
        partitioner=partitioner,
        num_shards=len(results),
        workers=workers,
        operations=sum(result.operations for result in results),
        elapsed_us=max(result.elapsed_us for result in results),
        wall_s=wall_s,
        shard_results=results,
        metrics=aggregate_snapshots(snapshots),
        combined_metrics=combined_view(snapshots),
        latencies=_merge_recorders(*(r.latencies for r in results)),
        write_latencies=_merge_recorders(*(r.write_latencies for r in results)),
        read_latencies=_merge_recorders(*(r.read_latencies for r in results)),
        scan_latencies=_merge_recorders(*(r.scan_latencies for r in results)),
        timeline=timeline,
    )
