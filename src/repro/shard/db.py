"""ShardedDB: one keyspace partitioned across N independent engines.

Each shard is a full :class:`~repro.lsm.db.DB` — its own simulated device,
virtual clock, memtable, version set and metrics registry — so shards
share *nothing* and their simulated counters stay bit-exact no matter
which process runs them.  The partitioner (hash or range,
:mod:`repro.shard.partition`) decides key ownership; the facade keeps the
single-store API:

* ``put``/``get``/``delete`` route to the owning shard;
* ``scan`` merges per-shard iterators — shards own disjoint key sets, so
  the merge is a straight k-way ascending interleave;
* ``snapshot`` pins each shard's last write sequence number, giving a
  consistent cut of the fleet (per-shard sequence order is total);
* ``metrics`` returns the aggregate view, ``combined_metrics`` adds the
  ``shard.<i>.`` namespaces (:mod:`repro.obs.aggregate`).

Compaction scheduling is per-shard too: every shard has its own
maintenance engine, and with ``bg_threads >= 1`` its own
:class:`~repro.sched.scheduler.CompactionScheduler` with its own device
channel and background threads — no cross-shard bandwidth coupling, so
serial and parallel shard execution stay bit-identical.

Why shard a *simulated* store at all?  Two reasons the paper's scaling
analysis cares about: N quarter-size trees do less compaction work than
one big tree (lower write amplification — fewer levels to drag data
through), and independent shards execute on independent workers with no
coordination, which is where wall-clock speedup comes from on multi-core
hosts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .partition import Partitioner, make_partitioner
from ..errors import ConfigError
from ..faults.plan import FaultPlan
from ..lsm.compaction.base import CompactionPolicy
from ..lsm.compaction.spec import PolicySpec, get_spec, not_a_policy
from ..lsm.config import LSMConfig
from ..lsm.db import DB
from ..obs.aggregate import aggregate_snapshots, combined_view
from ..obs.snapshot import MetricsSnapshot
from ..ssd.flash import DeviceConfig
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile


def per_shard_policy(policy: object, num_shards: int) -> object:
    """``policy`` as every shard of a store or a run may receive it.

    Policies are stateful: each shard builds its own from a registry name
    or a :class:`~repro.lsm.compaction.spec.PolicySpec`, and one shared
    instance would corrupt every tree it drives.  An unknown name raises
    :class:`~repro.errors.UnknownPolicyError` before any shard is built.
    """
    if isinstance(policy, str):
        get_spec(policy)
    elif isinstance(policy, CompactionPolicy):
        if num_shards > 1:
            raise ConfigError(
                "a policy instance cannot be shared across shards; "
                "pass a name or a PolicySpec"
            )
    elif not isinstance(policy, (PolicySpec, type(None))):
        raise ConfigError(not_a_policy(policy))
    return policy


@dataclass(frozen=True)
class ShardedSnapshot:
    """A consistent cut of the fleet: one pinned sequence per shard.

    Each shard's writes are totally ordered by its sequence counter, so
    pinning ``last_sequence`` per shard captures exactly the writes
    applied before the snapshot.  ``t_us`` records each shard's virtual
    time at the pin for reporting.
    """

    sequences: Tuple[int, ...]
    t_us: Tuple[float, ...]

    @property
    def num_shards(self) -> int:
        return len(self.sequences)

    def sequence_of(self, shard_index: int) -> int:
        return self.sequences[shard_index]


class ShardedDB:
    """N independent DB shards behind the single-store API.

    Parameters
    ----------
    num_shards:
        How many independent engines to run.
    policy:
        A registry name or a :class:`~repro.lsm.compaction.spec.PolicySpec`;
        every shard builds its own policy from it (:func:`per_shard_policy`).
    partitioner:
        A kind name (``"hash"`` / ``"range"``, the latter placing its
        split points over ``key_space``) or a pre-built
        :class:`~repro.shard.partition.Partitioner`.
    config / profile:
        Shared engine geometry and device profile; every shard gets its
        own simulated device built from the same profile.  A
        :class:`~repro.ssd.flash.DeviceConfig` gives each shard its own
        independent flash/FTL layer from the same spec.
    fault_plans:
        Optional per-shard :class:`~repro.faults.plan.FaultPlan` sequence
        (``None`` entries leave that shard fault-free).  Each shard owns
        its own device, so plans are independent — the crash-point
        harness arms one shard at a time.
    """

    def __init__(
        self,
        num_shards: int,
        policy: object,
        partitioner: Union[str, Partitioner] = "hash",
        key_space: int = 0,
        config: Optional[LSMConfig] = None,
        profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
        fault_plans: Optional[Sequence[Optional["FaultPlan"]]] = None,
    ) -> None:
        if num_shards <= 0:
            raise ConfigError("num_shards must be positive")
        if fault_plans is not None and len(fault_plans) != num_shards:
            raise ConfigError(
                f"fault_plans covers {len(fault_plans)} shards, "
                f"engine has {num_shards}"
            )
        self.partitioner = make_partitioner(partitioner, num_shards, key_space)
        self.config = config if config is not None else LSMConfig()
        self.profile = profile
        policy = per_shard_policy(policy, num_shards)
        self.shards: List[DB] = [
            DB(
                config=self.config,
                policy=policy,
                profile=profile,
                fault_plan=fault_plans[index] if fault_plans is not None else None,
            )
            for index in range(num_shards)
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, key: bytes) -> int:
        return self.partitioner.shard_of(key)

    def shard_for(self, key: bytes) -> DB:
        return self.shards[self.partitioner.shard_of(key)]

    # ------------------------------------------------------------------
    # Single-store API
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        self.shard_for(key).put(key, value)

    def get(self, key: bytes) -> Optional[bytes]:
        return self.shard_for(key).get(key)

    def delete(self, key: bytes) -> None:
        self.shard_for(key).delete(key)

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched point lookups; results align with ``keys``.

        Keys are grouped by owning shard and each group runs through the
        shard's :meth:`~repro.lsm.db.DB.multi_get` fast path, so the
        per-shard simulated effects are identical to issuing the same
        keys through :meth:`get` one at a time (shards share nothing, and
        within a shard the batch preserves the caller's key order).
        """
        shard_of = self.partitioner.shard_of
        groups: List[List[bytes]] = [[] for _ in self.shards]
        slots: List[List[int]] = [[] for _ in self.shards]
        for position, key in enumerate(keys):
            index = shard_of(key)
            groups[index].append(key)
            slots[index].append(position)
        results: List[Optional[bytes]] = [None] * sum(len(group) for group in groups)
        for shard, group, positions in zip(self.shards, groups, slots):
            if not group:
                continue
            for position, value in zip(positions, shard.multi_get(group)):
                results[position] = value
        return results

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Up to ``count`` live pairs with key >= start, fleet-wide order.

        Every shard answers locally, then a k-way heap merge interleaves
        the (disjoint) per-shard results into global key order.  Each
        shard is asked for ``count`` pairs — ownership of the next
        ``count`` global keys could in the worst case sit entirely on one
        shard, so less would risk gaps.
        """
        per_shard = [shard.scan(start_key, count) for shard in self.shards]
        merged = heapq.merge(*per_shard)
        return [pair for _, pair in zip(range(count), merged)]

    def snapshot(self) -> ShardedSnapshot:
        """Pin every shard's current last write sequence (and clock)."""
        return ShardedSnapshot(
            sequences=tuple(shard.last_sequence for shard in self.shards),
            t_us=tuple(shard.clock.now() for shard in self.shards),
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def shard_metrics(self) -> List[MetricsSnapshot]:
        """Each shard's own snapshot, in shard order."""
        return [shard.metrics() for shard in self.shards]

    def metrics(self) -> MetricsSnapshot:
        """Aggregate view: counter-wise sums, ``t_us`` = slowest shard."""
        return aggregate_snapshots(self.shard_metrics())

    def combined_metrics(self) -> MetricsSnapshot:
        """Aggregate sums plus per-shard ``shard.<i>.`` namespaces."""
        return combined_view(self.shard_metrics())

    def reset_measurements(self) -> None:
        for shard in self.shards:
            shard.reset_measurements()

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def maybe_compact(self) -> None:
        """Drain outstanding maintenance on every shard."""
        for shard in self.shards:
            shard.policy.maybe_compact()

    def drain_scheduler(self) -> None:
        """Pay every shard's outstanding background compaction debt.

        Every shard owns an independent maintenance engine
        (shared-nothing extends to scheduling: per-shard threads, per-shard
        device channels).  This advances each shard's clock past its in-flight
        chunks — the fleet analogue of joining the compaction threads.
        With ``config.bg_threads == 0`` there are none, and the clocks
        stay put.
        """
        for shard in self.shards:
            shard.sched.drain()

    def crash_and_recover(self) -> int:
        """Crash-recover every shard; returns total records replayed.

        Shards share nothing, so fleet recovery is per-shard recovery in
        shard order (a real deployment would recover them in parallel;
        virtual clocks make the order irrelevant here).
        """
        return sum(shard.crash_and_recover() for shard in self.shards)

    def check_invariants(self) -> None:
        """Run every shard's cross-layer invariant checks."""
        for shard in self.shards:
            shard.check_invariants()

    def logical_items(self) -> List[Tuple[bytes, bytes]]:
        """Every live pair fleet-wide, key-ordered, off the clock."""
        streams = [list(shard.logical_items()) for shard in self.shards]
        return list(heapq.merge(*streams))

    def describe(self) -> str:
        lines = [
            f"ShardedDB: {self.num_shards} shards, "
            f"partitioner={self.partitioner.describe()}"
        ]
        for index, shard in enumerate(self.shards):
            lines.append(f"--- shard {index} ---")
            lines.append(shard.describe())
        return "\n".join(lines)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def split_by_shard(
    items: Iterable,
    partitioner: Partitioner,
    key: Callable[[object], bytes] = attrgetter("key"),
) -> List[List]:
    """Partition a trace by owning shard, preserving order.

    ``items`` is any iterable; ``key`` reads the routing key off one
    (an operation's ``.key`` by default — the serve layer routes
    ``(arrival, operation)`` pairs by the operation's).

    Scans route to the shard owning the *start* key; a cross-shard scan
    executed this way measures only the owning shard's range-read cost
    (documented approximation — the workload traces drive disjoint
    per-shard stores, and the ``ShardedDB.scan`` API does the full k-way
    merge when result correctness matters).
    """
    buckets: List[List] = [[] for _ in range(partitioner.num_shards)]
    shard_of = partitioner.shard_of
    for item in items:
        buckets[shard_of(key(item))].append(item)
    return buckets
