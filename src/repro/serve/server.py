"""The open-loop serving loop: arrivals → bounded queue → the engine.

This is the front-end that turns the closed-loop simulator into a
*service*: requests arrive from a deterministic arrival process
(:mod:`repro.serve.arrivals`) at absolute virtual timestamps, wait in a
bounded FIFO queue (a ``deque`` the loop owns), and are served one at
a time by a DB on its own virtual clock.  Each completed request records
**queue wait** and **service time** separately, so the report can show
how much of the client-perceived p99/p99.9 is queueing behind compaction
rather than the operation itself — the service-level form of the paper's
Fig. 1 interference story.

**Single-server semantics.**  The DB is the server; its
:class:`~repro.ssd.clock.SimClock` is the server's clock.  A request's
service starts at ``max(arrival, previous completion)``: when the server
is idle the clock jumps forward to the arrival (``advance_to``), which
is exactly the window in which background compaction threads
(:mod:`repro.sched`) catch up for free — open-loop slack is what lets
the scheduler hide compaction, and saturation is what exposes it.

**Back-pressure.**  Admission consults
:meth:`~repro.lsm.db.DB.throttle_state` before queueing a write: at
``"slowdown"`` the effective queue bound for writes halves (shed early,
keep waits bounded), at ``"stop"`` writes are refused and counted in
``rejected_backpressure`` — the engine's L0 throttle propagated to the
front door instead of silently inflating every queued request behind a
stalled write.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from math import inf
from operator import lt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .arrivals import poisson_arrivals, require_count, require_positive
from ..errors import ConfigError, ReproError, WorkloadError
from ..harness.latency import LatencyRecorder, LatencyTimeline
from ..harness.runner import counter_view, prepare_db
from ..lsm.config import LSMConfig
from ..lsm.db import DB
from ..obs.snapshot import MetricsSnapshot
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

#: Operation kinds subject to L0 back-pressure (the write path).
WRITE_KINDS = frozenset((OP_PUT, OP_DELETE, OP_RMW))

#: Arrivals between recorder flushes (``record_batch`` in the serve loop).
RECORD_BATCH = 256

#: The arrival the serve loop walks after the last real one: at ``inf``,
#: it drains the queue through the same loop body, then ends the loop.
_LAST_ARRIVAL = ((inf, None),)

_STALL_KEY = "engine.stall_time_us"
_DEVICE_WAIT_KEY = "sched.device_wait_us"


@dataclass(frozen=True)
class ServeSpec:
    """How to drive the store: one seeded Poisson stream at ``rate_ops_s``
    into a bounded FIFO queue.

    A closed loop is :func:`~repro.harness.runner.run_workload`'s.
    ``slo_us`` is the latency objective (queue wait + service) the
    violation rate is measured against.
    """

    #: Only ``"poisson"``; kept because ``bench/workloads.py`` passes it.
    arrival: str = "poisson"
    rate_ops_s: float = 10_000.0
    queue_depth: int = 64
    slo_us: float = 1_000.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.arrival != "poisson":
            raise ConfigError(
                f"unknown arrival process {self.arrival!r}; known: poisson"
            )
        require_positive("rate_ops_s", self.rate_ops_s)
        require_count("queue_depth", self.queue_depth)
        require_positive("slo_us", self.slo_us)
        require_count("seed", self.seed, minimum=0)


@dataclass
class ServeResult:
    """Everything measured during one open-loop serve run."""

    workload: str
    policy: str
    arrival: str
    offered_rate_ops_s: float
    queue_depth: int
    slo_us: float
    arrived: int
    admitted: int
    rejected_full: int
    rejected_backpressure: int
    completed: int
    #: Completed requests whose total latency exceeded ``slo_us``.
    slo_violations: int
    elapsed_us: float
    #: Queue wait per completed request (service start − arrival).
    wait_latencies: LatencyRecorder
    #: Engine service time per completed request (the closed-loop latency).
    service_latencies: LatencyRecorder
    #: Client-perceived latency: wait + service — what the SLO binds.
    total_latencies: LatencyRecorder
    timeline: LatencyTimeline
    metrics: MetricsSnapshot

    stall_time_us = counter_view("engine.stall_time_us", float)
    device_wait_us = counter_view("sched.device_wait_us", float)

    @property
    def rejected(self) -> int:
        return self.rejected_full + self.rejected_backpressure

    @property
    def throughput_ops_s(self) -> float:
        """Completed operations per simulated second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.completed / (self.elapsed_us / 1e6)

    @property
    def slo_violation_rate(self) -> float:
        """Violations over *arrivals*: a rejected request is a violated one.

        Counting rejections as violations keeps the metric honest under
        admission control — shedding load must not launder the SLO.
        """
        if self.arrived == 0:
            return 0.0
        return (self.slo_violations + self.rejected) / self.arrived

    @property
    def rejection_rate(self) -> float:
        if self.arrived == 0:
            return 0.0
        return self.rejected / self.arrived

    def mean_wait_us(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.wait_latencies.mean()

    def fingerprint(self) -> tuple:
        """Every deterministic quantity, for bit-identity assertions."""
        return (
            self.workload,
            self.policy,
            self.arrival,
            self.arrived,
            self.admitted,
            self.rejected_full,
            self.rejected_backpressure,
            self.completed,
            self.elapsed_us,
            tuple(sorted(self.metrics.counters.items())),
            tuple(sorted(self.metrics.gauges.items())),
            tuple(self.total_latencies.values),
            tuple(self.wait_latencies.values),
            tuple(self.service_latencies.values),
            tuple(
                (point.start_us, point.count, point.mean_latency_us,
                 point.max_latency_us, point.stall_us)
                for point in self.timeline.points()
            ),
        )

    def summary(self) -> Dict[str, float]:
        out = {
            "offered_rate_ops_s": self.offered_rate_ops_s,
            "throughput_ops_s": self.throughput_ops_s,
            "completed": float(self.completed),
            "rejection_rate": self.rejection_rate,
            "slo_violation_rate": self.slo_violation_rate,
        }
        if self.completed:
            out.update(
                {
                    "mean_wait_us": self.wait_latencies.mean(),
                    "mean_service_us": self.service_latencies.mean(),
                    "p50_us": self.total_latencies.percentile(50.0),
                    "p99_us": self.total_latencies.percentile(99.0),
                    "p999_us": self.total_latencies.percentile(99.9),
                }
            )
        return out


def serve_workload(
    spec: WorkloadSpec,
    policy: object,
    serve: ServeSpec,
    config: Optional[LSMConfig] = None,
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
    db: Optional[DB] = None,
    timeline_bucket_us: float = 1_000_000.0,
    operations: Optional[Iterable] = None,
    arrivals: Optional[Sequence[float]] = None,
) -> ServeResult:
    """Drive one workload through the serving layer.

    :func:`~repro.harness.runner.run_workload`'s protocol, but the
    measured phase consumes the operation stream at the arrival process's
    pace instead of back-to-back.  ``operations`` / ``arrivals`` replace
    the spec's measured stream and the serve spec's arrival timestamps.
    """
    generator = WorkloadGenerator(spec)
    if db is None:
        db = prepare_db(policy, generator.preload_operations(), config, profile)
    if operations is None:
        operations = generator.operations()
    if arrivals is None:
        arrivals = poisson_arrivals(serve.rate_ops_s, serve.seed, spec.num_operations)
    return _serve_open_loop(
        db, operations, arrivals, spec.name, serve, timeline_bucket_us
    )


def _write_admission(db: DB, serve: ServeSpec) -> int:
    """The queue bound one arriving write is admitted under.

    ``serve.queue_depth`` while the engine's L0 throttle is at
    ``"none"``; half of it, never below 1, at ``"slowdown"`` — shed early
    while the engine is degraded instead of queueing work it cannot
    absorb; and 0, refused, at ``"stop"``.  Only the :data:`WRITE_KINDS`
    reach it: a read is never back-pressured — L0 throttling is a
    write-path signal — so it never pays for the decision.

    The throttle signal reflects the engine as the last served request
    left it, caught up to the arrival only when the loop finds the
    server idle at ``"stop"`` (see :func:`_serve_open_loop`).
    """
    state = db.throttle_state()
    if state == "stop":
        return 0
    if state == "slowdown":
        return max(1, serve.queue_depth // 2)
    return serve.queue_depth


def _serve_open_loop(
    db: DB,
    operations,
    arrivals: Sequence[float],
    workload_name: str,
    serve: ServeSpec,
    timeline_bucket_us: float,
) -> ServeResult:
    """One loop pass per arrival, the request served inline.

    A pass first serves every queued request whose service starts before
    the arrival: the idle server jumps to the request's arrival, the
    operation runs exactly as the closed-loop runner dispatches it, and
    one ledger row ``(wait, service, total, begin, stall)`` is appended.
    Admission therefore sees the queue *depth* as it stands at the
    arrival instant; the engine's throttle state, which only writes
    consult (:func:`_write_admission`), is as the last served request
    left it.  A write that reads ``"stop"`` with nothing queued finds
    the server idle: the clock jumps to its arrival and the maintenance
    step a served write runs (``db.sched.on_operation()``) catches the
    engine up before admission is decided again — otherwise nothing
    would move the clock and every later write would be refused.  A
    last arrival at ``inf`` drains the queue through the same body.  The loop's counts are checked once at the end (every
    arrival admitted or rejected, every admitted request completed), and
    SLO violations are counted once over the totals.
    """
    # The FIFO: (arrival_us, operation) rows in arrival order.
    waiting = deque()
    push, take = waiting.append, waiting.popleft
    capacity = serve.queue_depth
    wait_rec = LatencyRecorder()
    service_rec = LatencyRecorder()
    total_rec = LatencyRecorder()
    timeline = LatencyTimeline(bucket_us=timeline_bucket_us)
    clock = db.clock
    put, get, scan, delete = db.put, db.get, db.scan, db.delete
    # Read in place, not through dict.get: a counter key, once bumped,
    # stays (registry.reset zeroes values in place).
    counters = db.registry._counters
    stall_total = counters.get(_STALL_KEY, 0) + counters.get(_DEVICE_WAIT_KEY, 0)
    start_time = clock.now()
    # Arrival timestamps are relative to the measured phase's origin; the
    # preload already advanced the clock, so shift to absolute time once.
    origin_us = start_time
    rows: List[Tuple[float, float, float, float, float]] = []
    append_row = rows.append

    def record_batch() -> None:
        """Split the buffered ledger rows into the recorders; empty it.

        Every recorder gets its column in completion order, the timeline
        ``(begin, total, stall)`` — ``record_many`` leaves each in the
        state per-request ``record`` calls would have.
        """
        if not rows:
            return
        waits, services, totals, begins, stalls = zip(*rows)
        rows.clear()
        wait_rec.record_many(waits)
        service_rec.record_many(services)
        total_rec.record_many(totals)
        timeline.record_many(zip(begins, totals, stalls))

    seq = admitted = rejected_full = rejected_backpressure = 0
    for arrival_rel_us, operation in chain(zip(arrivals, operations), _LAST_ARRIVAL):
        arrival_us = origin_us + arrival_rel_us
        while waiting and clock._now_us < arrival_us:
            request_us, request = take()
            if clock._now_us < request_us:
                # Server idle: jump to the arrival (clock.advance_to,
                # inlined).  Background work owed in this gap (compaction
                # rounds, and memtable flushes on the flush lane) is
                # replayed at the start of the next engine operation,
                # before its first I/O, so the chunks hold the device
                # channel inside the gap rather than queueing the
                # requests behind that operation (docs/SERVING.md).
                clock._now_us = request_us
            begin = clock._now_us
            kind = request[0]
            if kind == OP_PUT:
                put(request[1], request[2])
            elif kind == OP_GET:
                get(request[1])
            elif kind == OP_SCAN:
                scan(request[1], request[3])
            elif kind == OP_DELETE:
                delete(request[1])
            elif kind == OP_RMW:
                current = get(request[1])
                put(request[1], request[2] or current or b"")
            else:
                raise WorkloadError(f"unknown operation kind {kind!r}")
            service_us = clock._now_us - begin
            stalled = (counters[_STALL_KEY] if _STALL_KEY in counters else 0) + (
                counters[_DEVICE_WAIT_KEY] if _DEVICE_WAIT_KEY in counters else 0
            )
            wait_us = begin - request_us
            append_row((wait_us, service_us, wait_us + service_us,
                        begin, stalled - stall_total))
            stall_total = stalled
        if operation is None:  # the last arrival: the queue is drained
            break
        seq += 1
        if not seq % RECORD_BATCH:
            record_batch()
        bound = capacity
        if operation[0] in WRITE_KINDS:
            bound = _write_admission(db, serve)
            if not bound and not waiting and clock._now_us < arrival_us:
                # Idle at stop: no queued request will move the clock, so
                # jump to the arrival and run the maintenance step a
                # served write runs before deciding again.
                clock._now_us = arrival_us
                db.sched.on_operation()
                bound = _write_admission(db, serve)
            if not bound:
                rejected_backpressure += 1
                continue
        if len(waiting) >= bound:
            rejected_full += 1
            continue
        admitted += 1
        push((arrival_us, operation))
    record_batch()
    elapsed = clock.now() - start_time
    completed = len(total_rec)
    rejected = rejected_full + rejected_backpressure
    if seq != admitted + rejected or admitted != completed:
        raise ReproError(
            f"serve ledger does not balance: {seq} arrived, {admitted} "
            f"admitted, {rejected_full} + {rejected_backpressure} rejected, "
            f"{completed} completed, {len(waiting)} left queued"
        )
    return ServeResult(
        workload=workload_name,
        policy=db.policy.name,
        arrival=serve.arrival,
        offered_rate_ops_s=float(serve.rate_ops_s),
        queue_depth=serve.queue_depth,
        slo_us=serve.slo_us,
        arrived=seq,
        admitted=admitted,
        rejected_full=rejected_full,
        rejected_backpressure=rejected_backpressure,
        completed=completed,
        slo_violations=sum(map(lt, repeat(serve.slo_us), total_rec.values)),
        elapsed_us=elapsed,
        wait_latencies=wait_rec,
        service_latencies=service_rec,
        total_latencies=total_rec,
        timeline=timeline,
        metrics=db.metrics(),
    )
