"""The open-loop serving loop: arrivals → bounded queue → the engine.

This is the front-end that turns the closed-loop simulator into a
*service*: requests arrive from a deterministic arrival process
(:mod:`repro.serve.arrivals`) at absolute virtual timestamps, wait in a
bounded :class:`~repro.serve.queue.RequestQueue`, and are served one at
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
:meth:`~repro.lsm.db.DB.throttle_state` before offering a write to the
queue: at ``"slowdown"`` the effective queue bound for writes halves
(shed early, keep waits bounded), at ``"stop"`` writes are refused with
a typed :class:`~repro.errors.BackpressureError` — the engine's L0
throttle propagated to the front door instead of silently inflating
every queued request behind a stalled write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from math import inf
from operator import eq, lt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .arrivals import (
    ARRIVAL_KINDS,
    Arrival,
    Tenant,
    merge_tenant_arrivals,
    require_count,
    require_positive,
    split_rate,
)
from .queue import RequestQueue, check_discipline
from ..errors import BackpressureError, ConfigError, WorkloadError
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
_LAST_ARRIVAL = (((inf, 0), None),)

_STALL_KEY = "engine.stall_time_us"
_DEVICE_WAIT_KEY = "sched.device_wait_us"


@dataclass(frozen=True)
class ServeSpec:
    """How to drive the store: arrival profile, load, tenants, queue, SLO.

    ``arrival`` is a registered process kind (``"poisson"``, ``"onoff"``,
    ``"diurnal"``); a closed loop is
    :func:`~repro.harness.runner.run_workload`'s.  ``tenants``
    may be an explicit tuple of :class:`~repro.serve.arrivals.Tenant`;
    the ``num_tenants`` shortcut splits ``rate_ops_s`` equally instead.
    ``slo_us`` is the latency objective (queue wait + service) that
    per-tenant violation rates are measured against; tenants may
    override it individually.
    """

    arrival: str = "poisson"
    rate_ops_s: float = 10_000.0
    tenants: Optional[Tuple[Tenant, ...]] = None
    num_tenants: int = 1
    queue_depth: int = 64
    discipline: str = "fifo"
    slo_us: float = 1_000.0
    backpressure: bool = True
    seed: int = 7
    arrival_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            known = ", ".join(sorted(ARRIVAL_KINDS))
            raise ConfigError(
                f"unknown arrival process {self.arrival!r}; known: {known}"
            )
        require_positive("rate_ops_s", self.rate_ops_s)
        require_count("num_tenants", self.num_tenants)
        require_count("queue_depth", self.queue_depth)
        check_discipline(self.discipline)
        require_positive("slo_us", self.slo_us)

    def resolve_tenants(self) -> List[Tenant]:
        if self.tenants is not None:
            if not self.tenants:
                raise ConfigError("tenants tuple must be non-empty")
            return list(self.tenants)
        return split_rate(self.rate_ops_s, self.num_tenants)

    def tenant_slo_us(self, tenant: Tenant) -> float:
        return tenant.slo_us if tenant.slo_us is not None else self.slo_us


@dataclass
class TenantServeStats:
    """Everything measured for one tenant during a serve run."""

    tenant: Tenant
    slo_us: float
    completed: int = 0
    rejected_full: int = 0
    rejected_backpressure: int = 0
    slo_violations: int = 0
    wait_latencies: LatencyRecorder = field(default_factory=LatencyRecorder)
    total_latencies: LatencyRecorder = field(default_factory=LatencyRecorder)

    @property
    def arrived(self) -> int:
        return self.completed + self.rejected_full + self.rejected_backpressure

    @property
    def slo_violation_rate(self) -> float:
        """Violations over *arrivals*: a rejected request is a violated one.

        Counting rejections as violations keeps the metric honest under
        admission control — shedding load must not launder the SLO.
        """
        arrived = self.arrived
        if arrived == 0:
            return 0.0
        rejected = self.rejected_full + self.rejected_backpressure
        return (self.slo_violations + rejected) / arrived

    def snapshot(self, t_us: float) -> MetricsSnapshot:
        """This tenant's ledger as a ``tenant.<name>.``-namespaced snapshot."""
        counters: Dict[str, float] = {
            "serve.completed": self.completed,
            "serve.rejected_full": self.rejected_full,
            "serve.rejected_backpressure": self.rejected_backpressure,
            "serve.slo_violations": self.slo_violations,
        }
        if self.completed:
            counters["serve.wait_us_total"] = (
                self.completed * self.wait_latencies.mean()
            )
            counters["serve.total_us_total"] = (
                self.completed * self.total_latencies.mean()
            )
        lead = f"tenant.{self.tenant.name}."
        return MetricsSnapshot(
            t_us=t_us,
            counters={lead + key: value for key, value in counters.items()},
            gauges={lead + "serve.slo_us": self.slo_us},
        )


@dataclass
class ServeResult:
    """Everything measured during one open-loop serve run."""

    workload: str
    policy: str
    arrival: str
    offered_rate_ops_s: float
    queue_depth: int
    discipline: str
    slo_us: float
    arrived: int
    admitted: int
    rejected_full: int
    rejected_backpressure: int
    completed: int
    elapsed_us: float
    #: Queue wait per completed request (service start − arrival).
    wait_latencies: LatencyRecorder
    #: Engine service time per completed request (the closed-loop latency).
    service_latencies: LatencyRecorder
    #: Client-perceived latency: wait + service — what the SLO binds.
    total_latencies: LatencyRecorder
    timeline: LatencyTimeline
    tenant_stats: List[TenantServeStats]
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
    def slo_violations(self) -> int:
        return sum(stats.slo_violations for stats in self.tenant_stats)

    @property
    def slo_violation_rate(self) -> float:
        """Fleet violation rate over arrivals (rejections count as violated)."""
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

    def tenant_metrics(self) -> MetricsSnapshot:
        """Every tenant's ledger in one ``tenant.<name>.``-keyed snapshot."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        for stats in self.tenant_stats:
            scoped = stats.snapshot(self.elapsed_us)
            counters.update(scoped.counters)
            gauges.update(scoped.gauges)
        return MetricsSnapshot(
            t_us=self.elapsed_us,
            counters={key: counters[key] for key in sorted(counters)},
            gauges={key: gauges[key] for key in sorted(gauges)},
        )

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
    arrivals: Optional[Sequence[Arrival]] = None,
) -> ServeResult:
    """Drive one workload through the serving layer.

    :func:`~repro.harness.runner.run_workload`'s protocol, but the
    measured phase consumes the operation stream at the arrival process's
    pace instead of back-to-back.  ``operations`` / ``arrivals`` replace
    the spec's measured stream and the serve spec's arrival sequence.
    """
    generator = WorkloadGenerator(spec)
    if db is None:
        db = prepare_db(policy, generator.preload_operations(), config, profile)
    if operations is None:
        operations = generator.operations()
    if arrivals is None:
        arrivals = merge_tenant_arrivals(
            serve.resolve_tenants(),
            serve.arrival,
            serve.seed,
            spec.num_operations,
            **dict(serve.arrival_params),
        )
    return _serve_open_loop(
        db, operations, arrivals, spec.name, serve, timeline_bucket_us
    )


def _tenant_stats(serve: ServeSpec) -> List[TenantServeStats]:
    return [
        TenantServeStats(tenant=tenant, slo_us=serve.tenant_slo_us(tenant))
        for tenant in serve.resolve_tenants()
    ]


def _gated_kinds(serve: ServeSpec) -> frozenset:
    """The operation kinds admission control weighs: the writes, while
    back-pressure is on.  A read is never back-pressured — L0 throttling
    is a write-path signal — so it never pays for the decision."""
    return WRITE_KINDS if serve.backpressure else frozenset()


def admission_bound(
    db: DB, serve: ServeSpec, operation, tenant: str = ""
) -> Optional[int]:
    """The admission decision for one arriving operation.

    Returns the effective queue bound to offer under (``None`` = the
    configured capacity), or raises
    :class:`~repro.errors.BackpressureError` when the engine's L0
    throttle is at ``"stop"`` and the operation is a write.  At
    ``"slowdown"`` the bound halves for writes — shed early while the
    engine is degraded instead of queueing work it cannot absorb.
    Reads are never back-pressured (:func:`_gated_kinds`); the serve
    loop weighs the gated kinds only, through :func:`_write_admission`.

    The throttle signal reflects the engine as of the most recently
    *served* request: the virtual clock only advances when a request is
    executed, so after an idle gap the L0 state consulted here is the
    one the previous completion left behind, not a hypothetical state
    at the arrival instant.
    """
    if operation[0] not in _gated_kinds(serve):
        return None
    return _write_admission(db, serve, tenant)


def _write_admission(db: DB, serve: ServeSpec, tenant: str) -> Optional[int]:
    """:func:`admission_bound` for an operation of a gated kind."""
    state = db.throttle_state()
    if state == "stop":
        raise BackpressureError(
            "write refused: engine L0 throttle is at 'stop'",
            tenant=tenant,
        )
    if state == "slowdown":
        return max(1, serve.queue_depth // 2)
    return None


def _serve_open_loop(
    db: DB,
    operations,
    arrivals: Sequence[Arrival],
    workload_name: str,
    serve: ServeSpec,
    timeline_bucket_us: float,
) -> ServeResult:
    """One loop pass per arrival, the request served inline.

    A pass first serves every queued request whose service starts before
    the arrival: the idle server jumps to the request's arrival, the
    operation runs exactly as the closed-loop runner dispatches it, and
    one ledger row ``(wait, service, total, tenant, begin, stall)`` is
    appended.  Admission therefore sees the queue *depth* as it stands
    at the arrival instant; the engine's throttle state, which only the
    gated kinds consult (:func:`admission_bound`), is as of the last
    completion.  A last arrival at ``inf`` drains the queue through the
    same body.  The queue's discipline is its ``push`` / ``take``; its
    ledger is booked, and checked, once at the end.
    """
    tenants = _tenant_stats(serve)
    priorities = [stats.tenant.priority for stats in tenants]
    queue = RequestQueue(serve.queue_depth, serve.discipline)
    waiting, push, take = queue.waiting, queue.push, queue.take
    capacity = queue.capacity
    gated = _gated_kinds(serve)
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
    rows: List[Tuple[float, float, float, int, float, float]] = []
    append_row = rows.append

    def record_batch() -> None:
        """Split the buffered ledger rows into the recorders; empty it.

        Every recorder gets its column in completion order, each tenant
        its own rows' waits and totals (``compress`` over the tenant
        column), the timeline ``(begin, total, stall)`` — ``record_many``
        leaves each in the state per-request ``record`` calls would have.
        A tenant's completions and SLO violations are counted from its
        totals here.
        """
        if not rows:
            return
        waits, services, totals, owners, begins, stalls = zip(*rows)
        rows.clear()
        wait_rec.record_many(waits)
        service_rec.record_many(services)
        total_rec.record_many(totals)
        timeline.record_many(zip(begins, totals, stalls))
        for index, stats in enumerate(tenants):
            mine = list(map(eq, owners, repeat(index)))
            mine_waits = list(compress(waits, mine))
            mine_totals = list(compress(totals, mine))
            stats.wait_latencies.record_many(mine_waits)
            stats.total_latencies.record_many(mine_totals)
            stats.completed += len(mine_totals)
            stats.slo_violations += sum(map(lt, repeat(stats.slo_us), mine_totals))

    seq = 0
    for (arrival_rel_us, tenant_index), operation in chain(
        zip(arrivals, operations), _LAST_ARRIVAL
    ):
        arrival_us = origin_us + arrival_rel_us
        while waiting and clock._now_us < arrival_us:
            _seq, request_us, owner, request, _priority = take()
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
            append_row((wait_us, service_us, wait_us + service_us, owner,
                        begin, stalled - stall_total))
            stall_total = stalled
        if operation is None:  # the last arrival: the queue is drained
            break
        request = (seq, arrival_us, tenant_index, operation, priorities[tenant_index])
        seq += 1
        if not seq % RECORD_BATCH:
            record_batch()
        bound = capacity
        if operation[0] in gated:
            stats = tenants[tenant_index]
            try:
                effective = _write_admission(db, serve, stats.tenant.name)
            except BackpressureError:
                stats.rejected_backpressure += 1
                continue
            if effective is not None:
                bound = queue.bound(effective)
        if len(waiting) >= bound:
            tenants[tenant_index].rejected_full += 1
            continue
        push(request)
    record_batch()
    elapsed = clock.now() - start_time
    queue.book(
        arrived=seq,
        rejected=sum(s.rejected_full + s.rejected_backpressure for s in tenants),
        completed=len(total_rec),
    )
    return _serve_result(
        serve,
        tenants,
        workload=workload_name,
        policy=db.policy.name,
        arrived=queue.stats.arrived,
        admitted=queue.stats.admitted,
        elapsed_us=elapsed,
        wait_latencies=wait_rec,
        service_latencies=service_rec,
        total_latencies=total_rec,
        timeline=timeline,
        metrics=db.metrics(),
    )


def _serve_result(
    serve: ServeSpec, tenants: List[TenantServeStats], **measured
) -> ServeResult:
    """The result of one serve run: what ``serve`` configured, what the
    tenants' ledgers sum to, and what the loop ``measured``."""
    return ServeResult(
        arrival=serve.arrival,
        # The load actually offered is the sum of the resolved tenant
        # rates: an explicit tenants tuple overrides serve.rate_ops_s.
        offered_rate_ops_s=sum(s.tenant.rate_ops_s for s in tenants),
        queue_depth=serve.queue_depth,
        discipline=serve.discipline,
        slo_us=serve.slo_us,
        rejected_full=sum(s.rejected_full for s in tenants),
        rejected_backpressure=sum(s.rejected_backpressure for s in tenants),
        completed=sum(s.completed for s in tenants),
        tenant_stats=tenants,
        **measured,
    )
