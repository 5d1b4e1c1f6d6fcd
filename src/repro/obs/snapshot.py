"""Frozen, diffable snapshots of the whole metrics registry.

``db.metrics()`` is the single read path: engine counters, device I/O
categories, the block cache, policy-internal counters.  It returns a
:class:`MetricsSnapshot` — an immutable copy of every counter and gauge
at one instant of virtual time, carrying the one definition of each
derived quantity (host / device / total write amplification, host and
compaction bytes, cache hit ratio, activity share) — and two snapshots
subtract: ``after.delta(before)`` isolates exactly what one phase of a
benchmark did, which is how the harness separates load-phase from
measured-phase I/O without resetting anything.

Key naming follows the registry convention (``component.name``):

========================  =====================================================
``engine.*``              engine counters (puts, flush_count, link_count, ...)
``engine.activity.*``     virtual time per activity (Table I breakdown)
``device.read.<cat>.*``   per-category read ``ops`` / ``bytes`` / ``time_us``
``device.write.<cat>.*``  per-category write ``ops`` / ``bytes`` / ``time_us``
``cache.hits/misses``     block-cache probe outcomes
``policy.<name>.*``       compaction-policy counters (links, merges, ...)
``flash.*``               flash/FTL layer (pages programmed, GC, erases)
========================  =====================================================

docs/METRICS.md is the full catalogue (kind, unit, writer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from .registry import MetricsRegistry

Number = Union[int, float]


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable view of every metric at one virtual-time instant."""

    t_us: float
    counters: Mapping[str, Number] = field(default_factory=dict)
    gauges: Mapping[str, Number] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the mappings so a snapshot can never drift after capture.
        object.__setattr__(self, "counters", MappingProxyType(dict(self.counters)))
        object.__setattr__(self, "gauges", MappingProxyType(dict(self.gauges)))

    def __reduce__(self):
        # MappingProxyType cannot be pickled; rebuild from plain dicts so
        # snapshots survive the trip back from worker processes (the
        # parallel experiment grid ships whole RunResults across).
        return (
            self.__class__,
            (self.t_us, dict(self.counters), dict(self.gauges)),
        )

    @classmethod
    def capture(cls, registry: "MetricsRegistry", t_us: float) -> "MetricsSnapshot":
        """Snapshot ``registry`` at virtual time ``t_us``."""
        return cls(t_us=t_us, counters=registry.counters(), gauges=registry.gauges())

    # ------------------------------------------------------------------
    # Mapping-ish access
    # ------------------------------------------------------------------
    def get(self, key: str, default: Number = 0) -> Number:
        """Counter value (falling back to gauges, then ``default``)."""
        if key in self.counters:
            return self.counters[key]
        return self.gauges.get(key, default)

    def __getitem__(self, key: str) -> Number:
        if key in self.counters:
            return self.counters[key]
        return self.gauges[key]

    def __contains__(self, key: str) -> bool:
        return key in self.counters or key in self.gauges

    def __iter__(self) -> Iterator[Tuple[str, Number]]:
        return iter(self.counters.items())

    def component(self, prefix: str) -> Dict[str, Number]:
        """Counters under ``prefix.``, keyed by the remainder of the key."""
        lead = prefix + "."
        return {
            key[len(lead):]: value
            for key, value in self.counters.items()
            if key.startswith(lead)
        }

    def _sum(self, prefix: str, suffix: str) -> Number:
        return sum(
            value
            for key, value in self.counters.items()
            if key.startswith(prefix) and key.endswith(suffix)
        )

    # ------------------------------------------------------------------
    # Diffing
    # ------------------------------------------------------------------
    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counter-wise difference ``self - earlier``.

        Gauges are point-in-time values, so the later snapshot's gauges are
        kept as-is.  ``delta`` of a snapshot with itself is all-zero, and
        ``earlier.delta(earlier).delta(...)`` chains freely since the
        result is itself a snapshot.
        """
        keys = set(self.counters) | set(earlier.counters)
        diff = {
            key: self.counters.get(key, 0) - earlier.counters.get(key, 0)
            for key in sorted(keys)
        }
        return MetricsSnapshot(
            t_us=self.t_us - earlier.t_us, counters=diff, gauges=dict(self.gauges)
        )

    # ------------------------------------------------------------------
    # Unified headline quantities
    # ------------------------------------------------------------------
    @property
    def total_bytes_read(self) -> int:
        return int(self._sum("device.read.", ".bytes"))

    @property
    def total_bytes_written(self) -> int:
        return int(self._sum("device.write.", ".bytes"))

    @property
    def compaction_bytes_read(self) -> int:
        return int(self.get("device.read.compaction_read.bytes"))

    @property
    def compaction_bytes_written(self) -> int:
        return int(self.get("device.write.compaction_write.bytes"))

    @property
    def compaction_bytes_total(self) -> int:
        """Total compaction traffic (the paper's Fig. 10c quantity)."""
        return self.compaction_bytes_read + self.compaction_bytes_written

    @property
    def user_bytes_written(self) -> int:
        return int(self.get("engine.user_bytes_written"))

    @property
    def gc_write_bytes(self) -> int:
        """Device-internal GC relocation writes (0 without a flash layer)."""
        return int(self.get("device.write.gc_write.bytes"))

    @property
    def host_bytes_written(self) -> int:
        """Engine-issued write bytes: total writes minus GC relocations."""
        return self.total_bytes_written - self.gc_write_bytes

    @property
    def write_amplification(self) -> float:
        """Host writes over logical user writes (Definition 2.6).

        GC relocation traffic (flash layer on) is excluded: it belongs
        to :attr:`device_write_amplification`, and end-to-end WA is the
        product (:attr:`total_write_amplification`).  Identical to the
        historical all-device-writes ratio when the flash layer is off.
        """
        user = self.user_bytes_written
        if user <= 0:
            return 0.0
        return self.host_bytes_written / user

    @property
    def flash_bytes_programmed(self) -> int:
        """Bytes programmed into flash pages, host + GC (0 without flash)."""
        return int(self.get("flash.bytes_programmed"))

    @property
    def blocks_erased(self) -> int:
        return int(self.get("flash.blocks_erased"))

    @property
    def max_erase_count(self) -> int:
        """Highest per-block erase count (wear hot spot; gauge)."""
        return int(self.gauges.get("flash.max_erase_count", 0))

    @property
    def device_write_amplification(self) -> float:
        """Programmed flash bytes over host write bytes (1.0 without flash).

        The numerator counts whole programmed pages plus the WAL
        stream's not-yet-programmed fill remainder, so page-granularity
        rounding can never push the ratio below 1.
        """
        programmed = self.flash_bytes_programmed
        if programmed <= 0:
            return 1.0
        pending = self.gauges.get("flash.stream_pending_bytes", 0)
        host = self.host_bytes_written
        if host <= 0:
            return 1.0
        return (programmed + pending) / host

    @property
    def total_write_amplification(self) -> float:
        """End-to-end WA: host WA × device WA (the paper's lifetime story)."""
        return self.write_amplification * self.device_write_amplification

    @property
    def cache_hit_ratio(self) -> float:
        """Block-cache hit ratio over the snapshot's window (0 when unused)."""
        hits = self.get("cache.hits")
        total = hits + self.get("cache.misses")
        return hits / total if total else 0.0

    def activity_share(self) -> Dict[str, float]:
        """Fraction of accounted engine time per activity (Table I)."""
        times = self.component("engine.activity")
        total = sum(times.values())
        if total <= 0:
            return {}
        return {name: value / total for name, value in sorted(times.items())}

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready export of the full snapshot."""
        return {
            "t_us": self.t_us,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsSnapshot(t={self.t_us / 1e6:.3f}s, "
            f"{len(self.counters)} counters, wa={self.write_amplification:.2f})"
        )
