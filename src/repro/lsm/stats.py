"""Engine-level statistics.

The device tracks I/O by category; this module tracks *engine activity
time* — how much virtual time was spent inside compaction, flushing, WAL
appends, memtable work and read service.  The activity breakdown is what
regenerates the paper's Table I ("DoCompactionWork 61.4%, file system
20.9%, DoWrite 8.04%").

Since the observability redesign, :class:`EngineStats` is a thin *view*
over the shared :class:`~repro.obs.registry.MetricsRegistry`: every field
below is a property reading and writing a ``engine.*`` registry counter,
so ``db.metrics()`` sees the same numbers and one
``db.reset_measurements()`` call zeroes them together with the device,
cache and policy metrics.  The public surface (``stats.puts``,
``stats.charge_activity(...)``, ``stats.round_bytes`` ...) is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.registry import MetricsRegistry

# Activity labels (Table I analogues).
ACT_COMPACTION = "compaction"  # DoCompactionWork
ACT_FLUSH = "flush"  # memtable dump to L0
ACT_WAL = "wal"  # log append (file system share)
ACT_WRITE = "write"  # DoWrite: memtable insert + stalls
ACT_READ = "read"  # point-lookup service
ACT_SCAN = "scan"  # range-query service

#: Integer engine counters, in declaration order.
_INT_COUNTERS = (
    "puts",
    "deletes",
    "gets",
    "get_hits",
    "scans",
    "scanned_records",
    "scan_sources",  # files + linked slices the scans' merges opened
    "flush_count",
    "compaction_count",
    "trivial_moves",
    "link_count",  # LDC link-phase actions
    "merge_count",  # LDC merge-phase actions
    "forced_merges",  # LDC merges forced by space/level pressure
    "stall_events",
    "user_bytes_written",
    "sstable_blocks_read",  # data-block read count (paper Fig. 13)
    "bloom_negative_skips",  # lookups a Bloom filter short-circuited
)
_FLOAT_COUNTERS = ("stall_time_us",)

_ACTIVITY_PREFIX = "engine.activity"

#: Prebuilt dotted keys for the known activities — charge_activity runs
#: several times per operation and the f-string dominated its cost.
_ACTIVITY_KEYS = {
    activity: f"{_ACTIVITY_PREFIX}.{activity}"
    for activity in (
        ACT_COMPACTION,
        ACT_FLUSH,
        ACT_WAL,
        ACT_WRITE,
        ACT_READ,
        ACT_SCAN,
    )
}


class EngineStats:
    """Counters and activity-time accounting for one DB instance.

    A view over an ``engine.*`` slice of a metrics registry.  Constructed
    standalone it owns a private registry, so unit tests and ad-hoc use
    need no setup; the DB passes its shared registry in.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Bytes moved (read + written) by each individual compaction round —
        #: the *granularity* distribution behind the paper's equation (3):
        #: UDC rounds are O(fan_out) files, LDC rounds O(1).
        self.round_bytes: List[int] = []
        self.registry.on_reset(self.round_bytes.clear)

    # ------------------------------------------------------------------
    # Round granularity
    # ------------------------------------------------------------------
    def record_round(self, nbytes: int) -> None:
        self.round_bytes.append(nbytes)

    def round_bytes_percentile(self, pct: float) -> int:
        """Percentile of per-round compaction sizes (granularity metric)."""
        if not self.round_bytes:
            return 0
        ordered = sorted(self.round_bytes)
        index = min(len(ordered) - 1, max(0, int(pct / 100 * len(ordered)) - 1))
        return ordered[index]

    @property
    def max_round_bytes(self) -> int:
        return max(self.round_bytes, default=0)

    # ------------------------------------------------------------------
    # Activity-time accounting (Table I)
    # ------------------------------------------------------------------
    def charge_activity(self, activity: str, elapsed_us: float) -> None:
        key = _ACTIVITY_KEYS.get(activity)
        if key is None:
            key = f"{_ACTIVITY_PREFIX}.{activity}"
        # Several calls per operation; EngineStats is a designated view
        # over the registry, so bump the counter dict directly.
        counters = self.registry._counters
        counters[key] = counters.get(key, 0) + elapsed_us

    @property
    def activity_time_us(self) -> Dict[str, float]:
        """Accumulated virtual time per activity (a copy)."""
        return self.registry.component(_ACTIVITY_PREFIX)

    @property
    def total_activity_time_us(self) -> float:
        return sum(self.activity_time_us.values())

    def activity_share(self) -> Dict[str, float]:
        """Fraction of accounted time per activity (Table I analogue)."""
        times = self.activity_time_us
        total = sum(times.values())
        if total <= 0:
            return {}
        return {
            activity: elapsed / total
            for activity, elapsed in sorted(times.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EngineStats(puts={self.puts}, gets={self.gets}, "
            f"flushes={self.flush_count}, compactions={self.compaction_count})"
        )


def _counter_property(name: str, cast: type) -> property:
    key = f"engine.{name}"

    def getter(self: EngineStats):
        return cast(self.registry.counter(key))

    def setter(self: EngineStats, value) -> None:
        self.registry.set_counter(key, cast(value))

    return property(getter, setter, doc=f"Registry counter ``{key}``.")


for _name in _INT_COUNTERS:
    setattr(EngineStats, _name, _counter_property(_name, int))
for _name in _FLOAT_COUNTERS:
    setattr(EngineStats, _name, _counter_property(_name, float))
del _name
