"""The workload runner: drive a DB with a workload spec, measure everything.

The paper's measurement protocol (§IV-A), written down once:

1. :func:`prepare_db` builds a fresh DB with the requested compaction
   policy over a fresh simulated device, loads the preload stream
   (read-bearing workloads run against a populated store), drains
   maintenance and resets the statistics;
2. :func:`execute_operations` runs the measured operations, recording each
   one's virtual-time latency (split by kind) and the Fig. 1-style timeline;
3. the :class:`RunResult` carries throughput, percentiles, the metrics
   snapshot (device I/O by category, engine counters) and space usage.

This is the one closed-loop measurement path; the serving layer
(:mod:`repro.serve`) measures open loops only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional

from .latency import LatencyRecorder, LatencyTimeline
from ..errors import WorkloadError
from ..lsm.config import LSMConfig
from ..lsm.db import DB
from ..obs.snapshot import MetricsSnapshot
from ..obs.tracer import Tracer
from ..ssd.flash import DeviceConfig
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile
from ..workload.spec import WorkloadSpec
from ..workload.ycsb import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_RMW,
    OP_SCAN,
    WorkloadGenerator,
)


def snapshot_view(name: str) -> property:
    """A result attribute that reads ``result.metrics.<name>``."""
    return property(lambda self: getattr(self.metrics, name))


def counter_view(key: str, cast: type = int) -> property:
    """A result attribute that reads one counter of ``result.metrics``."""
    return property(lambda self: cast(self.metrics.get(key)))


@dataclass
class RunResult:
    """Everything measured during one workload run.

    The counter-backed quantities (I/O bytes, write amplification, engine
    counters, stall time, the flash/FTL figures of docs/DEVICE.md) are
    views of ``metrics``, the snapshot taken when the run finished (its
    counters cover the measured window since the post-load reset).
    """

    workload: str
    policy: str
    operations: int
    #: Measured virtual time.
    elapsed_us: float
    latencies: LatencyRecorder
    write_latencies: LatencyRecorder
    read_latencies: LatencyRecorder
    scan_latencies: LatencyRecorder
    timeline: LatencyTimeline
    metrics: MetricsSnapshot
    space_bytes: int
    live_bytes: int
    extra_space_bytes: int
    final_threshold: Optional[int] = None
    #: Bytes moved by each compaction round of the measured window
    #: (``db.round_bytes``).
    round_bytes: List[int] = field(default_factory=list)

    compaction_read_bytes = snapshot_view("compaction_bytes_read")
    compaction_write_bytes = snapshot_view("compaction_bytes_written")
    compaction_bytes_total = snapshot_view("compaction_bytes_total")
    total_read_bytes = snapshot_view("total_bytes_read")
    total_write_bytes = snapshot_view("total_bytes_written")
    user_bytes_written = snapshot_view("user_bytes_written")
    #: *Host* write amplification; the device and end-to-end ratios follow.
    write_amplification = snapshot_view("write_amplification")
    device_write_amplification = snapshot_view("device_write_amplification")
    total_write_amplification = snapshot_view("total_write_amplification")
    gc_write_bytes = snapshot_view("gc_write_bytes")
    flash_bytes_programmed = snapshot_view("flash_bytes_programmed")
    blocks_erased = snapshot_view("blocks_erased")
    max_erase_count = snapshot_view("max_erase_count")
    flush_count = counter_view("engine.flush_count")
    compaction_count = counter_view("engine.compaction_count")
    link_count = counter_view("engine.link_count")
    merge_count = counter_view("engine.merge_count")
    trivial_moves = counter_view("engine.trivial_moves")
    stall_events = counter_view("engine.stall_events")
    sstable_blocks_read = counter_view("engine.sstable_blocks_read")
    bloom_negative_skips = counter_view("engine.bloom_negative_skips")
    #: Virtual time spent throttled (L0 slowdown delays + stop stalls) and
    #: waiting behind background compaction on the device channel.
    stall_time_us = counter_view("engine.stall_time_us", float)
    device_wait_us = counter_view("sched.device_wait_us", float)
    activity_share = property(lambda self: self.metrics.activity_share())

    @property
    def throughput_ops_s(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.operations / (self.elapsed_us / 1e6)

    @property
    def mean_latency_us(self) -> float:
        return self.latencies.mean()

    def fingerprint(self) -> tuple:
        """Every deterministic quantity, for bit-identity assertions: if
        any of this differs between a serial and a parallel grid, the
        determinism contract is broken.
        """
        return (
            self.workload,
            self.policy,
            self.operations,
            self.elapsed_us,
            tuple(sorted(self.metrics.counters.items())),
            tuple(sorted(self.metrics.gauges.items())),
            tuple(self.latencies.values),
            tuple(
                (point.start_us, point.count, point.mean_latency_us,
                 point.max_latency_us)
                for point in self.timeline.points()
            ),
        )

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by reports and tests."""
        return {
            "throughput_ops_s": self.throughput_ops_s,
            "mean_latency_us": self.mean_latency_us,
            "p99_us": self.latencies.percentile(99.0),
            "p999_us": self.latencies.percentile(99.9),
            "write_amplification": self.write_amplification,
            "device_write_amplification": self.device_write_amplification,
            "total_write_amplification": self.total_write_amplification,
            "compaction_gib": self.compaction_bytes_total / 2**30,
            "space_mib": self.space_bytes / 2**20,
        }


def build_db(
    policy: object,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    tracer: Optional[Tracer] = None,
) -> DB:
    """Construct a fresh DB for one measured run.

    ``policy`` is a registered policy name, a
    :class:`~repro.lsm.compaction.spec.PolicySpec` or an instance.
    ``profile`` accepts a bare :class:`~repro.ssd.profile.SSDProfile`
    or a :class:`~repro.ssd.flash.DeviceConfig` (flash layer opt-in).
    """
    return DB(
        config=config if config is not None else LSMConfig(),
        policy=policy,
        profile=profile,
        tracer=tracer,
    )


def prepare_db(
    policy: object,
    preload: Iterable,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    tracer: Optional[Tracer] = None,
) -> DB:
    """Build a store, load ``preload`` into it, run one
    ``policy.maybe_compact()`` pass and reset the counters: everything
    counted afterwards is the measured phase's alone (the load is traced
    too, separated by the reset).  Work already handed to background
    threads is not drained here (no ``db.sched.drain()``); that drain
    lands with ROADMAP item 11, since it moves one-thread runs' pins."""
    db = build_db(policy, config=config, profile=profile, tracer=tracer)
    for operation in preload:
        db.put(operation.key, operation.value)
    db.policy.maybe_compact()
    db.reset_measurements()
    return db


#: Operations dispatched per chunk by the runner loop.  Chunking
#: amortises the per-operation recorder calls (bulk ``record_many`` per
#: chunk) without changing any recorded value.
CHUNK_SIZE = 1024


def run_workload(
    spec: WorkloadSpec,
    policy: object,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    timeline_bucket_us: float = 1_000_000.0,
    db: Optional[DB] = None,
    tracer: Optional[Tracer] = None,
    sample_stride: int = 1,
    max_latency_samples: Optional[int] = None,
    operations: Optional[Iterable] = None,
) -> RunResult:
    """Run one workload against one policy and measure it.

    Pass ``db`` to reuse a pre-built (e.g. pre-loaded) database; otherwise
    a fresh one is created and loaded per the spec.  Pass ``tracer`` (with
    sinks attached) to record the run's full event timeline; the load
    phase is traced too, separated from the measured phase by the
    measurement reset.  ``sample_stride`` / ``max_latency_samples``
    configure sampled latency recording for paper-scale runs (see
    :class:`~repro.harness.latency.LatencyRecorder`).  ``operations``
    replaces the spec's measured stream.
    """
    generator = WorkloadGenerator(spec)
    if db is None:
        db = prepare_db(
            policy, generator.preload_operations(), config, profile, tracer
        )
    return execute_operations(
        db,
        generator.operations() if operations is None else operations,
        workload_name=spec.name,
        timeline_bucket_us=timeline_bucket_us,
        sample_stride=sample_stride,
        max_latency_samples=max_latency_samples,
    )


def execute_operations(
    db: DB,
    operations,
    workload_name: str,
    timeline_bucket_us: float = 1_000_000.0,
    sample_stride: int = 1,
    max_latency_samples: Optional[int] = None,
) -> RunResult:
    """Execute an explicit operation stream against a prepared DB.

    The measured core of :func:`run_workload`, and what the benchmark of
    record drives directly.

    Operations execute one at a time (per-op virtual-time effects are
    untouched), but latencies are buffered and bulk-loaded into the
    recorders once per chunk of :data:`CHUNK_SIZE`.
    """
    recorders = {
        kind: LatencyRecorder(sample_stride, max_latency_samples)
        for kind in (OP_PUT, OP_DELETE, OP_GET, OP_SCAN, OP_RMW)
    }
    overall = LatencyRecorder(sample_stride, max_latency_samples)
    timeline = LatencyTimeline(bucket_us=timeline_bucket_us)
    clock = db.clock
    start_time = clock.now()
    count = _run_chunked(db, operations, recorders, overall, timeline)

    elapsed = clock.now() - start_time
    snapshot = db.metrics()
    live = db.version.total_file_bytes()
    extra = db.policy.extra_space_bytes()
    return RunResult(
        workload=workload_name,
        policy=db.policy.name,
        operations=count,
        elapsed_us=elapsed,
        latencies=overall,
        write_latencies=merge_recorders(recorders[OP_PUT], recorders[OP_DELETE]),
        read_latencies=recorders[OP_GET],
        scan_latencies=recorders[OP_SCAN],
        timeline=timeline,
        metrics=snapshot,
        space_bytes=live + extra,
        live_bytes=live,
        extra_space_bytes=extra,
        final_threshold=db.policy.movement.threshold,
        round_bytes=list(db.round_bytes),
    )


def _run_chunked(
    db: DB,
    operations,
    recorders: Dict[str, LatencyRecorder],
    overall: LatencyRecorder,
    timeline: LatencyTimeline,
) -> int:
    """The measurement loop: per-op effects, amortised bookkeeping.

    Operations execute strictly one at a time against the DB (the
    virtual clock, stall attribution and maintenance interleaving are
    per-op by contract), but per-op recorder calls are replaced by one
    ``record_many`` per recorder per chunk.  Within a chunk each
    recorder receives its latencies in the same order a per-op loop
    would have appended them, so the recorded state is bit-identical.
    """
    clock = db.clock
    db_put = db.put
    db_get = db.get
    db_scan = db.scan
    db_delete = db.delete
    # Stall counters are read twice per operation; go straight to the
    # registry's counter dict (registry.reset() mutates it in place, so
    # the reference stays valid for the DB's lifetime).
    counters_get = db.registry._counters.get
    stall_total = counters_get("engine.stall_time_us", 0) + counters_get(
        "sched.device_wait_us", 0
    )
    count = 0
    stream = iter(operations)
    while True:
        chunk = list(islice(stream, CHUNK_SIZE))
        if not chunk:
            break
        per_kind: Dict[str, List[float]] = {}
        overall_latencies: List[float] = []
        push_overall = overall_latencies.append
        events: List[tuple] = []
        push_event = events.append
        for operation in chunk:
            kind = operation[0]
            begin = clock._now_us
            if kind == OP_PUT:
                db_put(operation[1], operation[2])
            elif kind == OP_GET:
                db_get(operation[1])
            elif kind == OP_SCAN:
                db_scan(operation[1], operation[3])
            elif kind == OP_DELETE:
                db_delete(operation[1])
            elif kind == OP_RMW:
                current = db_get(operation[1])
                db_put(operation[1], operation[2] or current or b"")
            else:
                raise WorkloadError(f"unknown operation kind {kind!r}")
            latency = clock._now_us - begin
            stalled = counters_get("engine.stall_time_us", 0) + counters_get(
                "sched.device_wait_us", 0
            )
            bucket = per_kind.get(kind)
            if bucket is None:
                bucket = per_kind[kind] = []
            bucket.append(latency)
            push_overall(latency)
            push_event((begin, latency, stalled - stall_total))
            stall_total = stalled
        for kind, latencies in per_kind.items():
            recorders[kind].record_many(latencies)
        overall.record_many(overall_latencies)
        timeline.record_many(events)
        count += len(chunk)
    return count


def merge_recorders(*recorders: LatencyRecorder) -> LatencyRecorder:
    merged = LatencyRecorder()
    for recorder in recorders:
        merged.merge_from(recorder)
    return merged
