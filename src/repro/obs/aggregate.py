"""Cross-shard metric aggregation: N registries, one report.

A sharded engine runs one :class:`~repro.obs.registry.MetricsRegistry`
per shard — each shard owns its own simulated device and virtual clock,
so its counters are bit-exact regardless of which process executed it.
This module folds those per-shard snapshots into the two views the
sharded report exposes:

* the **aggregate** view: counter-wise sums under the original key names,
  so ``engine.puts`` over the aggregate equals the sum over shards and
  every downstream consumer (write amplification, activity share, cache
  hit ratio) works unchanged; gauges sum too, except the *level* gauges
  (a threshold, a per-block maximum), which fold by max;
* the **namespaced** view: every shard's full snapshot re-keyed under
  ``shard.<i>.`` so nothing is lost in the fold — per-shard skew stays
  inspectable after the fact.

Aggregation is pure, deterministic and order-independent in value (sums
commute) but key-sorted in layout, which is what lets the shard runner
promise byte-identical output for serial and parallel execution.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from ..errors import ReproError
from .snapshot import MetricsSnapshot

Number = Union[int, float]

#: Key prefix for per-shard namespaced metrics (``shard.3.engine.puts``).
SHARD_PREFIX = "shard"

#: Key prefix for per-tenant serving metrics (``tenant.gold.completed``).
TENANT_PREFIX = "tenant"


def prefix_snapshot(snapshot: MetricsSnapshot, prefix: str) -> MetricsSnapshot:
    """Re-key every metric under ``<prefix>.`` (counters and gauges).

    The generic namespacing primitive behind both the per-shard
    (``shard.<i>.``) and per-tenant (``tenant.<name>.``) views: one
    snapshot folds into a larger one without key collisions, and
    ``MetricsSnapshot.component(prefix)`` recovers it.
    """
    if not prefix:
        raise ReproError("snapshot prefix must be non-empty")
    lead = prefix + "."
    return MetricsSnapshot(
        t_us=snapshot.t_us,
        counters={lead + key: value for key, value in snapshot.counters.items()},
        gauges={lead + key: value for key, value in snapshot.gauges.items()},
    )


def namespace_snapshot(snapshot: MetricsSnapshot, shard_index: int) -> MetricsSnapshot:
    """Re-key every metric under ``shard.<index>.`` (counters and gauges)."""
    if shard_index < 0:
        raise ReproError("shard index must be non-negative")
    return prefix_snapshot(snapshot, f"{SHARD_PREFIX}.{shard_index}")


def _keywise_sum(mappings: Sequence) -> Dict[str, Number]:
    totals: Dict[str, Number] = {}
    for mapping in mappings:
        for key, value in mapping.items():
            totals[key] = totals.get(key, 0) + value
    return {key: totals[key] for key in sorted(totals)}


def is_level_gauge(key: str) -> bool:
    """Whether gauge ``key`` is a level (folds by max) rather than a size."""
    return key == "flash.max_erase_count" or (
        key.startswith("policy.") and key.endswith(".threshold")
    )


def aggregate_snapshots(snapshots: Sequence[MetricsSnapshot]) -> MetricsSnapshot:
    """Counter-wise sum of per-shard snapshots under the original keys.

    ``t_us`` is the **maximum** shard virtual time: shards advance their
    own clocks independently, and the aggregate run is finished when its
    slowest shard is — the parallel-execution semantics the wall-clock
    speedup comes from.  Gauges that are sizes or occupancies (live pages,
    frozen bytes) sum, the fleet total being the meaningful figure; a
    level gauge (:func:`is_level_gauge`) is the highest any shard reads —
    three shards at threshold 5 are a fleet at threshold 5, not 15.
    """
    if not snapshots:
        raise ReproError("cannot aggregate zero snapshots")
    gauges = _keywise_sum([snapshot.gauges for snapshot in snapshots])
    for key in filter(is_level_gauge, gauges):
        gauges[key] = max(
            snapshot.gauges[key] for snapshot in snapshots if key in snapshot.gauges
        )
    return MetricsSnapshot(
        t_us=max(snapshot.t_us for snapshot in snapshots),
        counters=_keywise_sum([snapshot.counters for snapshot in snapshots]),
        gauges=gauges,
    )


def combined_view(snapshots: Sequence[MetricsSnapshot]) -> MetricsSnapshot:
    """Aggregate sums plus every per-shard metric under ``shard.<i>.``.

    One snapshot answering both "what did the fleet do" (plain keys) and
    "what did shard 3 do" (``shard.3.`` keys); ``component("shard.3")``
    recovers a shard's full counter set.
    """
    aggregate = aggregate_snapshots(snapshots)
    counters: Dict[str, Number] = dict(aggregate.counters)
    gauges: Dict[str, Number] = dict(aggregate.gauges)
    for index, snapshot in enumerate(snapshots):
        scoped = namespace_snapshot(snapshot, index)
        counters.update(scoped.counters)
        gauges.update(scoped.gauges)
    return MetricsSnapshot(t_us=aggregate.t_us, counters=counters, gauges=gauges)
