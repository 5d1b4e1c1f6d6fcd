"""Typed trace events: the vocabulary of the engine's execution timeline.

Every interesting engine action — a flush, one compaction round, an LDC
link or merge, a write stall, a block-cache probe, a device transfer —
emits one :class:`TraceEvent` through the attached
:class:`~repro.obs.tracer.Tracer`.  Events carry the virtual-clock
timestamp and a flat field mapping, so a JSON-lines trace file is a
complete, replayable account of what maintenance did and when — the raw
material behind the paper's Table I, Fig. 1, Fig. 8 and Fig. 10c/12
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

# Canonical event kinds.
EV_FLUSH = "flush"  # memtable dumped to Level-0 SSTables
EV_COMPACTION_ROUND = "compaction_round"  # one I/O-bearing maintenance round
EV_LINK = "link"  # LDC link phase (zero-I/O metadata action)
EV_MERGE = "merge"  # LDC lower-level driven merge
EV_TRIVIAL_MOVE = "trivial_move"  # file re-parented without I/O
EV_STALL = "stall"  # write stalled on Level-0 back-pressure
EV_CACHE_HIT = "cache_hit"  # block served from the block cache
EV_CACHE_MISS = "cache_miss"  # block fetched from the device
EV_DEVICE_READ = "device_read"  # one device read transfer
EV_DEVICE_WRITE = "device_write"  # one device write transfer
EV_RECOVERY = "recovery"  # crash recovery: WAL replayed into a fresh memtable
EV_FAULT_CRASH = "fault_crash"  # injected crash point fired
EV_FAULT_CORRUPTION = "fault_corruption"  # injected read corruption delivered
EV_SCHED_TASK = "sched_task"  # compaction round captured as a background task
EV_SCHED_TASK_DONE = "sched_task_done"  # background task paid off its last chunk

ALL_EVENT_KINDS: Tuple[str, ...] = (
    EV_FLUSH,
    EV_COMPACTION_ROUND,
    EV_LINK,
    EV_MERGE,
    EV_TRIVIAL_MOVE,
    EV_STALL,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_DEVICE_READ,
    EV_DEVICE_WRITE,
    EV_RECOVERY,
    EV_FAULT_CRASH,
    EV_FAULT_CORRUPTION,
    EV_SCHED_TASK,
    EV_SCHED_TASK_DONE,
)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped engine event.

    Attributes
    ----------
    kind:
        One of the ``EV_*`` constants (free-form kinds are allowed for
        extensions, but sinks and tools assume the canonical set).
    t_us:
        Virtual-clock timestamp at emission, in microseconds.
    fields:
        Flat, JSON-serialisable payload (byte counts, file ids, levels,
        durations).
    """

    kind: str
    t_us: float
    fields: Mapping[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.fields[name]

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to one JSON-ready dict (the JSON-lines wire format)."""
        out: Dict[str, Any] = {"kind": self.kind, "t_us": self.t_us}
        out.update(self.fields)
        return out
