"""The workload runner: drive a DB with a workload spec, measure everything.

``run_workload`` executes the paper's measurement protocol:

1. build a fresh DB with the requested compaction policy over a fresh
   simulated device;
2. load ``preload_keys`` distinct keys (read-bearing workloads run against
   a populated store, as in §IV-A), drain maintenance, reset statistics;
3. execute the measured operations, recording each operation's virtual-time
   latency (split by kind) and the Fig. 1-style timeline;
4. return a :class:`RunResult` with throughput, percentiles, device I/O by
   category, engine counters and space usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List, Optional

from .latency import LatencyRecorder, LatencyTimeline
from ..errors import WorkloadError
from ..lsm.compaction.spec import resolve_factory
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

#: Factory producing a fresh policy instance per run (policies are
#: stateful).  Every harness entry point also accepts a registered policy
#: name or a :class:`~repro.lsm.compaction.spec.PolicySpec` wherever a
#: factory is expected (coerced through
#: :func:`~repro.lsm.compaction.spec.resolve_factory`).
PolicyFactory = Callable[[], object]


@dataclass
class RunResult:
    """Everything measured during one workload run."""

    workload: str
    policy: str
    operations: int
    elapsed_us: float
    latencies: LatencyRecorder
    write_latencies: LatencyRecorder
    read_latencies: LatencyRecorder
    scan_latencies: LatencyRecorder
    timeline: LatencyTimeline
    compaction_read_bytes: int
    compaction_write_bytes: int
    total_read_bytes: int
    total_write_bytes: int
    user_bytes_written: int
    write_amplification: float
    space_bytes: int
    live_bytes: int
    extra_space_bytes: int
    flush_count: int
    compaction_count: int
    link_count: int
    merge_count: int
    trivial_moves: int
    stall_events: int
    sstable_blocks_read: int
    bloom_negative_skips: int
    activity_share: Dict[str, float] = field(default_factory=dict)
    final_threshold: Optional[int] = None
    #: Unified metrics snapshot taken when the run finished (counters cover
    #: the measured window since the post-load reset).
    metrics: Optional[MetricsSnapshot] = None
    #: Virtual time the measured operations spent throttled (L0 slowdown
    #: delays + stop stalls); always present, non-zero mostly under the
    #: scheduler (``bg_threads >= 1``).
    stall_time_us: float = 0.0
    #: Foreground waits behind in-flight background compaction chunks on
    #: the device channel (scheduler only).
    device_wait_us: float = 0.0
    #: Flash/FTL quantities (docs/DEVICE.md); the defaults are what a
    #: flash-less run reports, so pickled results and old callers are
    #: unaffected.  ``write_amplification`` above stays *host* WA.
    device_write_amplification: float = 1.0
    total_write_amplification: float = 0.0
    gc_write_bytes: int = 0
    flash_bytes_programmed: int = 0
    blocks_erased: int = 0
    max_erase_count: int = 0

    @property
    def throughput_ops_s(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.operations / (self.elapsed_us / 1e6)

    @property
    def compaction_bytes_total(self) -> int:
        return self.compaction_read_bytes + self.compaction_write_bytes

    @property
    def mean_latency_us(self) -> float:
        return self.latencies.mean()

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
    policy_factory: PolicyFactory,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    tracer: Optional[Tracer] = None,
) -> DB:
    """Construct a fresh DB for one measured run.

    ``policy_factory`` may be a zero-arg factory, a registered policy
    name, or a :class:`~repro.lsm.compaction.spec.PolicySpec`.
    ``profile`` accepts a bare :class:`~repro.ssd.profile.SSDProfile`
    or a :class:`~repro.ssd.flash.DeviceConfig` (flash layer opt-in).
    """
    return DB(
        config=config if config is not None else LSMConfig(),
        policy=resolve_factory(policy_factory)(),
        profile=profile,
        tracer=tracer,
    )


#: Operations dispatched per chunk by the runner loop.  Chunking
#: amortises the per-operation recorder calls (bulk ``record_many`` per
#: chunk) without changing any recorded value — the differential tests
#: pin it equal to a per-op loop (``tests/_runner_oracle.py``) exactly.
CHUNK_SIZE = 1024


def run_workload(
    spec: WorkloadSpec,
    policy_factory: PolicyFactory,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    timeline_bucket_us: float = 1_000_000.0,
    db: Optional[DB] = None,
    tracer: Optional[Tracer] = None,
    sample_stride: int = 1,
    max_latency_samples: Optional[int] = None,
) -> RunResult:
    """Run one workload against one policy and measure it.

    Pass ``db`` to reuse a pre-built (e.g. pre-loaded) database; otherwise
    a fresh one is created and loaded per the spec.  Pass ``tracer`` (with
    sinks attached) to record the run's full event timeline; the load
    phase is traced too, separated from the measured phase by the
    measurement reset.  ``sample_stride`` / ``max_latency_samples``
    configure sampled latency recording for paper-scale runs (see
    :class:`~repro.harness.latency.LatencyRecorder`).
    """
    generator = WorkloadGenerator(spec)
    if db is None:
        db = build_db(policy_factory, config=config, profile=profile, tracer=tracer)
        for operation in generator.preload_operations():
            db.put(operation.key, operation.value)
        db.policy.maybe_compact()
        db.reset_measurements()
    return execute_operations(
        db,
        generator.operations(),
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

    The measured core of :func:`run_workload`, split out so the sharded
    runner (:mod:`repro.shard.runner`) can drive a shard with a
    pre-partitioned slice of the trace through the *identical* loop —
    keeping single-store and sharded measurements comparable.

    Operations execute one at a time (per-op virtual-time effects are
    untouched), but latencies are buffered and bulk-loaded into the
    recorders once per chunk of :data:`CHUNK_SIZE`.
    """
    recorders = {
        OP_PUT: LatencyRecorder(sample_stride, max_latency_samples),
        OP_DELETE: LatencyRecorder(sample_stride, max_latency_samples),
        OP_GET: LatencyRecorder(sample_stride, max_latency_samples),
        OP_SCAN: LatencyRecorder(sample_stride, max_latency_samples),
        OP_RMW: LatencyRecorder(sample_stride, max_latency_samples),
    }
    overall = LatencyRecorder(sample_stride, max_latency_samples)
    timeline = LatencyTimeline(bucket_us=timeline_bucket_us)
    clock = db.clock
    start_time = clock.now()
    count = _run_chunked(db, operations, recorders, overall, timeline)

    elapsed = clock.now() - start_time
    device_stats = db.device.stats
    snapshot = db.metrics()
    live = db.version.total_file_bytes()
    extra = db.policy.extra_space_bytes()
    write_recorder = _merge_recorders(recorders[OP_PUT], recorders[OP_DELETE])
    final_threshold = getattr(db.policy, "threshold", None)
    return RunResult(
        workload=workload_name,
        policy=db.policy.name,
        operations=count,
        elapsed_us=elapsed,
        latencies=overall,
        write_latencies=write_recorder,
        read_latencies=recorders[OP_GET],
        scan_latencies=recorders[OP_SCAN],
        timeline=timeline,
        compaction_read_bytes=device_stats.compaction_bytes_read,
        compaction_write_bytes=device_stats.compaction_bytes_written,
        total_read_bytes=device_stats.total_bytes_read,
        total_write_bytes=device_stats.total_bytes_written,
        user_bytes_written=db.engine_stats.user_bytes_written,
        write_amplification=db.write_amplification(),
        space_bytes=live + extra,
        live_bytes=live,
        extra_space_bytes=extra,
        flush_count=db.engine_stats.flush_count,
        compaction_count=db.engine_stats.compaction_count,
        link_count=db.engine_stats.link_count,
        merge_count=db.engine_stats.merge_count,
        trivial_moves=db.engine_stats.trivial_moves,
        stall_events=db.engine_stats.stall_events,
        sstable_blocks_read=db.engine_stats.sstable_blocks_read,
        bloom_negative_skips=db.engine_stats.bloom_negative_skips,
        activity_share=db.engine_stats.activity_share(),
        final_threshold=final_threshold if isinstance(final_threshold, int) else None,
        metrics=snapshot,
        stall_time_us=float(db.registry.counter("engine.stall_time_us")),
        device_wait_us=float(db.registry.counter("sched.device_wait_us")),
        device_write_amplification=snapshot.device_write_amplification,
        total_write_amplification=snapshot.total_write_amplification,
        gc_write_bytes=snapshot.gc_write_bytes,
        flash_bytes_programmed=snapshot.flash_bytes_programmed,
        blocks_erased=snapshot.blocks_erased,
        max_erase_count=snapshot.max_erase_count,
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
    timeline_record = timeline.record
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
        for begin, latency, stall in events:
            timeline_record(begin, latency, stall_us=stall)
        count += len(chunk)
    return count


def _merge_recorders(*recorders: LatencyRecorder) -> LatencyRecorder:
    merged = LatencyRecorder()
    for recorder in recorders:
        merged.merge_from(recorder)
    return merged
