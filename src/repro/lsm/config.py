"""Configuration for the LSM-tree engine.

The defaults mirror the *shape* of the paper's LevelDB setup (fan-out 10,
LevelDB-style L0 triggers, ~10 bits/key Bloom filters) while scaling the
absolute sizes down so that Python-scale experiments (10^4–10^6 operations)
exercise the same multi-level geometry the paper's 10^7-operation runs did
with 2 MB SSTables.  Every ``LSMConfig`` field is overridable per
experiment; the CPU cost constants below are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..errors import ConfigError

KIB = 1024
MIB = 1024 * 1024

#: ``LSMConfig`` fields that count bytes, files, levels or threads: each
#: must be a plain ``int`` — not a float, and not a ``bool``.
_INT_FIELDS = (
    "memtable_bytes",
    "sstable_target_bytes",
    "block_bytes",
    "fan_out",
    "level1_capacity_bytes",
    "max_levels",
    "l0_compaction_trigger",
    "l0_slowdown_trigger",
    "l0_stop_trigger",
    "bloom_bits_per_key",
    "block_cache_bytes",
    "bg_threads",
)


# Fixed CPU costs, in microseconds, charged to the virtual clock.  The
# device model accounts for I/O time; these small constants account for
# the in-memory work (memtable search, Bloom probes, merge-sort per-record
# handling).  They matter for read-mostly workloads where most operations
# never touch the device.
MEMTABLE_INSERT_US = 0.5
MEMTABLE_LOOKUP_US = 0.3
BLOOM_CHECK_US = 0.05
INDEX_LOOKUP_US = 0.1
MERGE_PER_RECORD_US = 0.02
SCAN_PER_RECORD_US = 0.02
CACHE_HIT_US = 2.0


@dataclass(frozen=True)
class LSMConfig:
    """Tunable parameters of the LSM-tree engine.

    Every count and byte field is an ``int``: a float or a ``bool`` there
    raises :class:`~repro.errors.ConfigError` at construction.

    Parameters
    ----------
    memtable_bytes:
        Capacity of the in-memory write buffer; a full memtable is flushed
        to a Level-0 SSTable (LevelDB used 2–4 MB; we default to 64 KB for
        simulation scale).
    sstable_target_bytes:
        Target on-device size of one SSTable (paper: 2 MB; scaled default
        64 KB).  Compactions split their output at this size.
    block_bytes:
        Size of one data block, the unit of read I/O within an SSTable.
    fan_out:
        Capacity ratio between adjacent levels (Definition 2.5); the paper
        defaults UDC and LDC to 10 and sweeps 3–100 in Figs. 7/12.
    level1_capacity_bytes:
        Capacity of Level 1; level ``i`` holds ``level1 * fan_out**(i-1)``.
    max_levels:
        Number of on-device levels (L0..L{max_levels-1}).
    l0_compaction_trigger / l0_slowdown_trigger / l0_stop_trigger:
        LevelDB's Level-0 file-count thresholds: schedule compaction at the
        first, delay each write by ``l0_slowdown_delay_us`` at the second,
        and block writes (compact inline) at the third.
    bloom_bits_per_key:
        Bloom filter size in whole bits per key (an ``int``, not a
        ``bool``; 0 disables the filters); the paper studies 10–200
        bits/key (Figs. 12c/f, 13) and recommends 8–16.
    block_cache_bytes:
        Capacity of the LRU data-block cache (0 disables it).  LevelDB
        ships an 8 MB cache against 2 MB files; the equivalent at our
        64 KB file scale is ~256 KB.  The paper's Fig. 11 relies on this
        cache ("Zipf distribution usually leads to higher hit ratios of
        in-memory cache").
    frozen_space_limit_ratio:
        Safety valve: when the frozen region exceeds this fraction of live
        data, LDC forces merges, each on the table that has held links
        longest (its links pin the oldest frozen files).  The paper's
        §III-D worst-case analysis allows frozen files to reach 50% of the
        store ("the total size of all the frozen SSTables is less than
        50%"), which is the default here; tighter settings trade LDC's
        I/O savings for space.
    bg_threads:
        Number of background compaction "threads" driven by the
        virtual-time scheduler (:mod:`repro.sched`).  The default 0 is the
        synchronous engine: each captured round's time is charged at once
        to the operation that runs it, and every golden fingerprint is
        byte-identical.  With ``bg_threads >= 1`` compaction rounds become
        resumable chunked work units that share device bandwidth with the
        foreground, and writes observe LevelDB-style L0 slowdown/stop
        throttling (see docs/SCHEDULING.md).
    """

    memtable_bytes: int = 64 * KIB
    sstable_target_bytes: int = 64 * KIB
    block_bytes: int = 4 * KIB
    fan_out: int = 10
    level1_capacity_bytes: int = 256 * KIB
    max_levels: int = 7
    l0_compaction_trigger: int = 4
    l0_slowdown_trigger: int = 8
    l0_stop_trigger: int = 12
    l0_slowdown_delay_us: float = 1000.0
    bloom_bits_per_key: int = 10
    block_cache_bytes: int = 0
    frozen_space_limit_ratio: float = 0.50
    bg_threads: int = 0

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        positives = (
            "memtable_bytes",
            "sstable_target_bytes",
            "block_bytes",
            "level1_capacity_bytes",
            "max_levels",
            "l0_compaction_trigger",
        )
        for name in positives:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.fan_out < 2:
            raise ConfigError("fan_out must be at least 2")
        if self.block_bytes > self.sstable_target_bytes:
            raise ConfigError("block_bytes cannot exceed sstable_target_bytes")
        if not (
            self.l0_compaction_trigger
            <= self.l0_slowdown_trigger
            <= self.l0_stop_trigger
        ):
            raise ConfigError(
                "L0 triggers must satisfy compaction <= slowdown <= stop"
            )
        if self.bloom_bits_per_key < 0:
            raise ConfigError("bloom_bits_per_key must be non-negative")
        if self.block_cache_bytes < 0:
            raise ConfigError("block_cache_bytes must be non-negative")
        if self.l0_slowdown_delay_us < 0:
            raise ConfigError("l0_slowdown_delay_us must be non-negative")
        if not 0 < self.frozen_space_limit_ratio <= 1:
            raise ConfigError("frozen_space_limit_ratio must be in (0, 1]")
        if self.bg_threads < 0:
            raise ConfigError("bg_threads must be non-negative")

    def level_capacity_bytes(self, level: int) -> int:
        """Capacity of ``level`` in bytes (Level 0 is file-count driven)."""
        if level <= 0:
            raise ConfigError("level capacities are defined for level >= 1")
        return self.level1_capacity_bytes * self.fan_out ** (level - 1)

    def with_overrides(self, **overrides: Any) -> "LSMConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **overrides)
