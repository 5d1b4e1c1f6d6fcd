"""Reproduction of *LDC: A Lower-Level Driven Compaction Method to Optimize
SSD-Oriented Key-Value Stores* (ICDE 2019).

The library provides:

* :class:`~repro.lsm.db.DB` — a complete LSM-tree key-value store (the
  LevelDB-analogue substrate) running over a simulated SSD in virtual time;
* the compaction-policy registry (:func:`available_policies`,
  :func:`get_spec`, :class:`~repro.lsm.compaction.spec.PolicySpec`):
  ``"ldc"``, the paper's lower-level driven compaction (link & merge,
  :mod:`repro.core`), alongside the ``"udc"`` baseline and the lazy
  ``"tiered"`` / ``"delayed"`` baselines (docs/DESIGN_SPACE.md);
* :mod:`repro.workload` — a YCSB-like workload generator covering the
  paper's Table III workloads;
* :mod:`repro.model` — the analytical performance model of §II–III;
* :mod:`repro.harness` — virtual-time measurement (latency percentiles,
  throughput, compaction I/O) and per-figure experiment entry points;
* :mod:`repro.sched` — the deterministic virtual-time compaction
  scheduler, the maintenance engine with threads: with
  ``LSMConfig(bg_threads=N)`` and N >= 1 compaction rounds become chunked background work units
  sharing device bandwidth with the foreground, and writes observe
  LevelDB-style L0 slowdown/stop throttling (docs/SCHEDULING.md);
* :mod:`repro.ssd.flash` — an opt-in page/block flash device model
  (FTL mapping, log-structured allocation, garbage collection, wear
  tracking): ``DB(profile=DeviceConfig(flash=FlashSpec(...)))`` makes
  device-level write amplification and erase counts measurable end to
  end (docs/DEVICE.md);
* :mod:`repro.serve` — the open-loop serving layer: one seeded Poisson
  arrival stream, a bounded admission-controlled FIFO request queue wired
  to the engine's L0 back-pressure, and queueing-aware tail-latency
  reports (queue wait and service time measured separately —
  docs/SERVING.md);
* :mod:`repro.obs` — the observability layer: structured event tracing
  (:class:`~repro.obs.tracer.Tracer` with ring-buffer and JSON-lines
  sinks), the metrics registry behind every counter, frozen diffable
  :class:`~repro.obs.snapshot.MetricsSnapshot`\\ s from ``db.metrics()``,
  and streaming log-bucketed
  :class:`~repro.obs.histogram.LatencyHistogram`\\ s.

Quickstart
----------
>>> from repro import DB
>>> db = DB(policy="ldc")
>>> db.put(b"user1", b"hello")
>>> db.get(b"user1")
b'hello'
"""

from .core import AdaptiveThreshold, FrozenRegion, Slice
from .errors import (
    ClosedError,
    CompactionError,
    ConfigError,
    DeviceError,
    EngineError,
    FlashFullError,
    ReproError,
    UnknownPolicyError,
    WorkloadError,
)
from .lsm import (
    DB,
    WriteBatch,
    CompactionPolicy,
    LSMConfig,
    PolicySpec,
    available_policies,
    get_spec,
    make_policy,
)
from .obs import (
    JsonLinesSink,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSnapshot,
    RingBufferSink,
    TraceEvent,
    Tracer,
)
from .sched import CompactionScheduler, DeviceChannel
from .serve import (
    ServeSpec,
    serve_workload,
)
from .ssd import (
    ENTERPRISE_PCIE,
    DeviceConfig,
    FlashSpec,
    FlashTranslationLayer,
    SimClock,
    SimulatedSSD,
    SSDProfile,
    get_profile,
)

__version__ = "1.0.0"

__all__ = [
    "DB",
    "WriteBatch",
    "LSMConfig",
    "CompactionPolicy",
    "PolicySpec",
    "available_policies",
    "get_spec",
    "make_policy",
    "ServeSpec",
    "serve_workload",
    "Slice",
    "FrozenRegion",
    "AdaptiveThreshold",
    "CompactionScheduler",
    "DeviceChannel",
    "SimClock",
    "SimulatedSSD",
    "SSDProfile",
    "DeviceConfig",
    "FlashSpec",
    "FlashTranslationLayer",
    "get_profile",
    "ENTERPRISE_PCIE",
    "Tracer",
    "TraceEvent",
    "RingBufferSink",
    "JsonLinesSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "LatencyHistogram",
    "ReproError",
    "ConfigError",
    "DeviceError",
    "FlashFullError",
    "EngineError",
    "ClosedError",
    "CompactionError",
    "UnknownPolicyError",
    "WorkloadError",
    "__version__",
]
