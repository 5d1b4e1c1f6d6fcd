"""I/O accounting for the simulated device.

Every read or write charged to the device carries a *category* describing
which engine activity issued it (user reads, WAL appends, memtable flushes,
compaction reads/writes, ...).  The per-category byte counts are what
regenerate the paper's compaction-efficiency results (Fig. 10c, Fig. 12d/e,
Fig. 14's I/O series) and the Table I time breakdown.

Since the observability redesign the counters live in the shared
:class:`~repro.obs.registry.MetricsRegistry` under
``device.<direction>.<category>.{ops,bytes,time_us}``;
:class:`CategoryStats` and :class:`IOStats` are thin views over that
namespace.  Their public surface is unchanged, and standalone construction
(``IOStats()``) owns a private registry so unit tests need no setup.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs.registry import MetricsRegistry

# Canonical I/O categories used across the engine.
USER_READ = "user_read"
USER_SCAN = "user_scan"
WAL_WRITE = "wal_write"
WAL_READ = "wal_read"
FLUSH_WRITE = "flush_write"
COMPACTION_READ = "compaction_read"
COMPACTION_WRITE = "compaction_write"
# Device-internal GC relocation traffic (flash layer only; see
# repro.ssd.flash).  Defined here so the category roster stays in one
# place; repro.ssd.flash re-exports them as its canonical names.
GC_READ = "gc_read"
GC_WRITE = "gc_write"

ALL_CATEGORIES: Tuple[str, ...] = (
    USER_READ,
    USER_SCAN,
    WAL_WRITE,
    WAL_READ,
    FLUSH_WRITE,
    COMPACTION_READ,
    COMPACTION_WRITE,
    GC_READ,
    GC_WRITE,
)

_PREFIX = "device"
_COMPACTION_READ_KEY = f"{_PREFIX}.read.{COMPACTION_READ}.bytes"
_COMPACTION_WRITE_KEY = f"{_PREFIX}.write.{COMPACTION_WRITE}.bytes"
_GC_WRITE_KEY = f"{_PREFIX}.write.{GC_WRITE}.bytes"


class CategoryStats:
    """View of one (category, direction) stream of I/O in the registry."""

    __slots__ = ("registry", "key", "ops_key", "bytes_key", "time_key")

    def __init__(
        self,
        ops: int = 0,
        bytes: int = 0,
        time_us: float = 0.0,
        *,
        registry: Optional[MetricsRegistry] = None,
        key: str = "device.adhoc.uncategorized",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.key = key
        #: The dotted counter keys, built once: the device's charge
        #: routine bumps them in place once per simulated I/O.
        self.ops_key = f"{key}.ops"
        self.bytes_key = f"{key}.bytes"
        self.time_key = f"{key}.time_us"
        if ops:
            self.ops = ops
        if bytes:
            self.bytes = bytes
        if time_us:
            self.time_us = time_us

    @property
    def ops(self) -> int:
        return int(self.registry.counter(f"{self.key}.ops"))

    @ops.setter
    def ops(self, value: int) -> None:
        self.registry.set_counter(f"{self.key}.ops", int(value))

    @property
    def bytes(self) -> int:
        return int(self.registry.counter(f"{self.key}.bytes"))

    @bytes.setter
    def bytes(self, value: int) -> None:
        self.registry.set_counter(f"{self.key}.bytes", int(value))

    @property
    def time_us(self) -> float:
        return float(self.registry.counter(f"{self.key}.time_us"))

    @time_us.setter
    def time_us(self, value: float) -> None:
        self.registry.set_counter(f"{self.key}.time_us", float(value))

    def record(self, nbytes: int, elapsed_us: float) -> None:
        # Once per simulated I/O; bump the registry's counter dict
        # directly rather than paying three method calls (CategoryStats
        # is a designated view over the registry, see module docstring).
        counters = self.registry._counters
        counters[self.ops_key] = counters.get(self.ops_key, 0) + 1
        counters[self.bytes_key] = counters.get(self.bytes_key, 0) + nbytes
        counters[self.time_key] = counters.get(self.time_key, 0) + elapsed_us

    def record_many(
        self, run_sizes: "list[int]", elapsed_runs: "list[float]"
    ) -> None:
        """Record a batch of same-category I/Os with one counter update.

        Counter-identical to calling :meth:`record` once per run: ops and
        bytes are integer sums, and the float time counter is accumulated
        left-to-right over the individual elapsed values — replaying the
        exact (non-associative) addition order of the per-run path.
        """
        counters = self.registry._counters
        counters[self.ops_key] = counters.get(self.ops_key, 0) + len(run_sizes)
        counters[self.bytes_key] = (
            counters.get(self.bytes_key, 0) + sum(run_sizes)
        )
        time_total = counters.get(self.time_key, 0)
        for elapsed in elapsed_runs:
            time_total += elapsed
        counters[self.time_key] = time_total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CategoryStats(ops={self.ops}, bytes={self.bytes}, "
            f"time_us={self.time_us:.1f})"
        )


class IOStats:
    """Aggregated device-side statistics, split by direction and category."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.reads: Dict[str, CategoryStats] = {}
        self.writes: Dict[str, CategoryStats] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def stream(self, direction: str, category: str) -> CategoryStats:
        """The "read" / "write" view of ``category``, created on first use."""
        streams = self.reads if direction == "read" else self.writes
        stats = streams.get(category)
        if stats is None:
            stats = CategoryStats(
                registry=self.registry, key=f"{_PREFIX}.{direction}.{category}"
            )
            streams[category] = stats
        return stats

    def record_read(self, category: str, nbytes: int, elapsed_us: float) -> None:
        self.stream("read", category).record(nbytes, elapsed_us)

    def record_write(self, category: str, nbytes: int, elapsed_us: float) -> None:
        self.stream("write", category).record(nbytes, elapsed_us)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_bytes_read(self) -> int:
        return int(self.registry.sum_matching(f"{_PREFIX}.read.", ".bytes"))

    @property
    def total_bytes_written(self) -> int:
        """Total bytes physically written — the device *wear* counter.

        The paper argues LDC extends SSD lifetime by roughly halving
        compaction writes; this counter is the measured quantity.
        """
        return int(self.registry.sum_matching(f"{_PREFIX}.write.", ".bytes"))

    @property
    def total_time_us(self) -> float:
        return float(
            self.registry.sum_matching(f"{_PREFIX}.read.", ".time_us")
            + self.registry.sum_matching(f"{_PREFIX}.write.", ".time_us")
        )

    def bytes_read(self, category: str) -> int:
        return int(self.registry.counter(f"{_PREFIX}.read.{category}.bytes"))

    def bytes_written(self, category: str) -> int:
        return int(self.registry.counter(f"{_PREFIX}.write.{category}.bytes"))

    def time_us_read(self, category: str) -> float:
        return float(self.registry.counter(f"{_PREFIX}.read.{category}.time_us"))

    def time_us_written(self, category: str) -> float:
        return float(self.registry.counter(f"{_PREFIX}.write.{category}.time_us"))

    @property
    def compaction_bytes_read(self) -> int:
        # Prebuilt key: read before/after every maintenance round.
        return int(self.registry.counter(_COMPACTION_READ_KEY))

    @property
    def compaction_bytes_written(self) -> int:
        return int(self.registry.counter(_COMPACTION_WRITE_KEY))

    @property
    def compaction_bytes_total(self) -> int:
        """Total compaction traffic — the y-axis of the paper's Fig. 10c."""
        return self.compaction_bytes_read + self.compaction_bytes_written

    @property
    def host_bytes_written(self) -> int:
        """Bytes the *engine* wrote — total writes minus GC relocations.

        Identical to :attr:`total_bytes_written` on a flash-less device
        (no ``gc_write`` category ever appears); with the flash layer on
        it excludes device-internal relocation traffic so host-level WA
        keeps its historical meaning.
        """
        return self.total_bytes_written - int(self.registry.counter(_GC_WRITE_KEY))

    def write_amplification(self, user_bytes_written: int) -> float:
        """Host writes divided by logical user writes (Definition 2.6).

        This is *host* WA — device-internal GC relocations are excluded
        (they belong to device WA; end-to-end WA is the product, see
        ``MetricsSnapshot.total_write_amplification``).
        """
        if user_bytes_written <= 0:
            return 0.0
        return self.host_bytes_written / user_bytes_written

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Return a plain-dict view suitable for reports and assertions."""
        result: Dict[str, Dict[str, float]] = {}
        for direction, streams in (("read", self.reads), ("write", self.writes)):
            for category, stats in streams.items():
                result[f"{direction}:{category}"] = {
                    "ops": stats.ops,
                    "bytes": stats.bytes,
                    "time_us": stats.time_us,
                }
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mib = 1024.0 * 1024.0
        return (
            f"IOStats(read={self.total_bytes_read / mib:.1f}MiB, "
            f"written={self.total_bytes_written / mib:.1f}MiB)"
        )
