"""Open-loop serving over a sharded store: one queue per shard.

A sharded deployment does not share a front-door queue: each shard owns
its device, its virtual clock, *and its request queue*, so a compaction
stall on one shard inflates only the requests routed to it.  This module
routes one merged arrival sequence across shards by key ownership
(:class:`~repro.shard.partition.Partitioner`), serves each shard's slice
with :func:`~repro.serve.server.serve_workload` — a shard is a serve run
over its slice — and folds the per-shard results into one
:class:`~repro.serve.server.ServeResult`: the serving-layer analogue of
:func:`~repro.shard.runner.run_sharded_workload`.

Determinism: the trace and arrivals are generated once on the driver
(pure functions of the seeds), routing is pure, and each shard simulates
in isolation, so the result is a function of the inputs alone.
"""

from __future__ import annotations

from typing import Optional, Union

from .arrivals import merge_tenant_arrivals
from .server import ServeResult, ServeSpec, serve_workload
from ..lsm.config import LSMConfig
from ..shard.db import per_shard_policy, split_by_shard
from ..shard.partition import Partitioner, make_partitioner
from ..ssd.flash import DeviceConfig
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile
from ..workload.spec import WorkloadSpec
from ..workload.ycsb import WorkloadGenerator


def run_sharded_serve(
    spec: WorkloadSpec,
    policy: object,
    serve: ServeSpec,
    num_shards: int,
    partitioner: Union[str, Partitioner] = "hash",
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    timeline_bucket_us: float = 1_000_000.0,
) -> ServeResult:
    """Serve one open-loop arrival sequence across ``num_shards`` engines.

    The merged arrival sequence is zipped with the workload trace, routed
    by key ownership, and each shard serves its slice through its own
    bounded queue over its own store.
    """
    policy = per_shard_policy(policy, num_shards)
    partitioner = make_partitioner(
        partitioner, num_shards, key_space=spec.key_space, key_bytes=spec.key_bytes
    )
    generator = WorkloadGenerator(spec)
    preload = split_by_shard(generator.preload_operations(), partitioner)
    arrivals = merge_tenant_arrivals(
        serve.resolve_tenants(),
        serve.arrival,
        serve.seed,
        spec.num_operations,
        **dict(serve.arrival_params),
    )
    routed = split_by_shard(
        zip(arrivals, generator.operations()),
        partitioner,
        key=lambda pair: pair[1].key,
    )
    results = [
        serve_workload(
            spec, policy, serve, config, profile,
            timeline_bucket_us=timeline_bucket_us,
            preload=preload[index],
            operations=[operation for _, operation in routed[index]],
            arrivals=[arrival for arrival, _ in routed[index]],
        )
        for index in range(num_shards)
    ]
    return ServeResult.fold(results, partitioner=partitioner.describe())
