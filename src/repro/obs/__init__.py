"""Unified observability layer: tracing, metrics and latency histograms.

Three pieces, one import::

    from repro.obs import Tracer, RingBufferSink, JsonLinesSink   # events
    from repro.obs import MetricsRegistry, MetricsSnapshot        # metrics
    from repro.obs import LatencyHistogram                        # latency

* The **event tracer** records typed, virtual-clock-timestamped events
  (flush, compaction round, LDC link/merge, stall, cache hit/miss, device
  I/O) through pluggable sinks.
* The **metrics registry** is the one ledger every component writes, and
  ``db.metrics()`` captures it as a frozen, diffable
  :class:`MetricsSnapshot` — the one thing every reader reads, and where
  each derived ratio is defined (docs/METRICS.md lists the keys).
* **Latency histograms** stream log-bucketed samples into
  p50/p90/p99/p99.9/max without storing every value.
"""

from .events import (
    ALL_EVENT_KINDS,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_COMPACTION_ROUND,
    EV_DEVICE_READ,
    EV_DEVICE_WRITE,
    EV_FAULT_CORRUPTION,
    EV_FAULT_CRASH,
    EV_FLUSH,
    EV_LINK,
    EV_MERGE,
    EV_RECOVERY,
    EV_SCHED_TASK,
    EV_SCHED_TASK_DONE,
    EV_STALL,
    EV_TRIVIAL_MOVE,
    TraceEvent,
)
from .histogram import LatencyHistogram
from .registry import MetricsRegistry
from .snapshot import MetricsSnapshot
from .tracer import JsonLinesSink, RingBufferSink, Tracer, summarize_events

__all__ = [
    "TraceEvent",
    "Tracer",
    "RingBufferSink",
    "JsonLinesSink",
    "summarize_events",
    "MetricsRegistry",
    "MetricsSnapshot",
    "LatencyHistogram",
    "ALL_EVENT_KINDS",
    "EV_FLUSH",
    "EV_COMPACTION_ROUND",
    "EV_LINK",
    "EV_MERGE",
    "EV_TRIVIAL_MOVE",
    "EV_STALL",
    "EV_CACHE_HIT",
    "EV_CACHE_MISS",
    "EV_DEVICE_READ",
    "EV_DEVICE_WRITE",
    "EV_RECOVERY",
    "EV_FAULT_CRASH",
    "EV_FAULT_CORRUPTION",
    "EV_SCHED_TASK",
    "EV_SCHED_TASK_DONE",
]
