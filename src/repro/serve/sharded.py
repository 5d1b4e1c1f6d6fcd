"""Open-loop serving over a sharded store: one queue per shard.

A sharded deployment does not share a front-door queue: each shard owns
its device, its virtual clock, *and its request queue*, so a compaction
stall on one shard inflates only the requests routed to it.  This module
routes one merged arrival sequence across shards by key ownership
(:class:`~repro.shard.partition.Partitioner`), serves each shard's
sub-sequence through the identical single-shard loop
(:func:`~repro.serve.server.serve_workload`'s internals), and folds the
per-shard results into one report — the serving-layer analogue of
:func:`~repro.shard.runner.run_sharded_workload`.

Determinism: the trace and arrivals are generated once on the driver
(pure functions of the seeds), routing is pure, and each shard simulates
in isolation, so the report is a function of the inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .server import ServeResult, ServeSpec, _serve_open_loop
from ..errors import ConfigError
from ..harness.latency import LatencyRecorder, LatencyTimeline
from ..harness.runner import PolicyFactory, build_db
from ..lsm.compaction.spec import resolve_factory
from ..lsm.config import LSMConfig
from ..obs.aggregate import aggregate_snapshots, combined_view
from ..obs.snapshot import MetricsSnapshot
from ..shard.partition import Partitioner, make_partitioner
from ..ssd.flash import DeviceConfig
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile
from ..workload.spec import WorkloadSpec
from ..workload.ycsb import WorkloadGenerator

from .arrivals import merge_tenant_arrivals


@dataclass
class ShardedServeReport:
    """Per-shard serve results plus the deterministic fold."""

    workload: str
    policy: str
    partitioner: str
    num_shards: int
    arrived: int
    admitted: int
    rejected: int
    completed: int
    #: Slowest shard's virtual time — the run finishes with its last shard.
    elapsed_us: float
    shard_results: List[ServeResult] = field(default_factory=list)
    metrics: Optional[MetricsSnapshot] = None
    combined_metrics: Optional[MetricsSnapshot] = None
    wait_latencies: Optional[LatencyRecorder] = None
    service_latencies: Optional[LatencyRecorder] = None
    total_latencies: Optional[LatencyRecorder] = None
    timeline: Optional[LatencyTimeline] = None

    @property
    def throughput_ops_s(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.completed / (self.elapsed_us / 1e6)

    @property
    def slo_violation_rate(self) -> float:
        """Fleet violation rate over arrivals (rejections count)."""
        if self.arrived == 0:
            return 0.0
        violations = sum(result.slo_violations for result in self.shard_results)
        return (violations + self.rejected) / self.arrived

    def fingerprint(self) -> tuple:
        assert self.metrics is not None and self.total_latencies is not None
        return (
            self.workload,
            self.policy,
            self.partitioner,
            self.num_shards,
            self.arrived,
            self.admitted,
            self.rejected,
            self.completed,
            self.elapsed_us,
            tuple(result.fingerprint() for result in self.shard_results),
            tuple(sorted(self.metrics.counters.items())),
        )

    def summary(self) -> Dict[str, float]:
        out = {
            "throughput_ops_s": self.throughput_ops_s,
            "completed": float(self.completed),
            "slo_violation_rate": self.slo_violation_rate,
            "num_shards": float(self.num_shards),
        }
        if self.completed and self.total_latencies is not None:
            out["p99_us"] = self.total_latencies.percentile(99.0)
            out["p999_us"] = self.total_latencies.percentile(99.9)
        return out


def run_sharded_serve(
    spec: WorkloadSpec,
    policy_factory: PolicyFactory,
    serve: ServeSpec,
    num_shards: int,
    partitioner: Union[str, Partitioner] = "hash",
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    timeline_bucket_us: float = 1_000_000.0,
) -> ShardedServeReport:
    """Serve one open-loop arrival sequence across ``num_shards`` engines.

    The merged arrival sequence is zipped with the workload trace, routed
    by key ownership, and each shard serves its slice through its own
    bounded queue over its own store.  Closed-loop mode is a single-store
    concept; use :func:`~repro.serve.server.serve_workload` for it.
    """
    if serve.arrival == "closed":
        raise ConfigError(
            "closed-loop replay is single-store; use serve_workload"
        )
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
    preload_buckets: List[list] = [[] for _ in range(num_shards)]
    for operation in generator.preload_operations():
        preload_buckets[partitioner.shard_of(operation.key)].append(operation)

    arrivals = merge_tenant_arrivals(
        serve.resolve_tenants(),
        serve.arrival,
        serve.seed,
        spec.num_operations,
        **dict(serve.arrival_params),
    )
    shard_arrivals: List[list] = [[] for _ in range(num_shards)]
    shard_operations: List[list] = [[] for _ in range(num_shards)]
    for arrival, operation in zip(arrivals, generator.operations()):
        shard = partitioner.shard_of(operation.key)
        shard_arrivals[shard].append(arrival)
        shard_operations[shard].append(operation)

    results: List[ServeResult] = []
    for index in range(num_shards):
        db = build_db(policy_factory, config=config, profile=profile)
        for operation in preload_buckets[index]:
            db.put(operation.key, operation.value)
        db.policy.maybe_compact()
        db.reset_measurements()
        results.append(
            _serve_open_loop(
                db,
                iter(shard_operations[index]),
                shard_arrivals[index],
                spec.name,
                serve,
                timeline_bucket_us,
            )
        )
    return merge_serve_results(
        results,
        workload=spec.name,
        partitioner=partitioner.describe(),
        timeline_bucket_us=timeline_bucket_us,
    )


def merge_serve_results(
    results: List[ServeResult],
    workload: str,
    partitioner: str,
    timeline_bucket_us: float = 1_000_000.0,
) -> ShardedServeReport:
    """Fold per-shard serve results deterministically (shard order)."""
    if not results:
        raise ConfigError("cannot merge zero serve results")
    snapshots = [result.metrics for result in results]
    assert all(snapshot is not None for snapshot in snapshots)
    wait = LatencyRecorder()
    service = LatencyRecorder()
    total = LatencyRecorder()
    timeline = LatencyTimeline(bucket_us=timeline_bucket_us)
    for result in results:
        wait.merge_from(result.wait_latencies)
        service.merge_from(result.service_latencies)
        total.merge_from(result.total_latencies)
        timeline.merge(result.timeline)
    return ShardedServeReport(
        workload=workload,
        policy=results[0].policy,
        partitioner=partitioner,
        num_shards=len(results),
        arrived=sum(result.arrived for result in results),
        admitted=sum(result.admitted for result in results),
        rejected=sum(result.rejected for result in results),
        completed=sum(result.completed for result in results),
        elapsed_us=max(result.elapsed_us for result in results),
        shard_results=results,
        metrics=aggregate_snapshots(snapshots),
        combined_metrics=combined_view(snapshots),
        wait_latencies=wait,
        service_latencies=service,
        total_latencies=total,
        timeline=timeline,
    )
