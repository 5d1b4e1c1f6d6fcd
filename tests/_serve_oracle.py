"""The per-request serve loop and the heap arrival merge, kept as a test oracle.

A served request used to cost the serving layer a call per step: the
loop popped it (``RequestQueue.pop``), served it in a closure
(``serve_one``, with ``_execute`` dispatching and ``queue.complete``
booking it) and offered each arrival through ``admission_bound`` and
``RequestQueue.offer``, which raised ``QueueFullError`` to reject.  The
arrivals themselves came from a hand-rolled heap merge that popped and
pushed a tenant per arrival.  ``src/`` now serves a request inline in one
loop and merges arrivals with ``heapq.merge``; the parent's routines live
on here, verbatim, as the reference ``tests/test_stack_equivalence.py``
pair-runs against: the same ``ServeResult.fingerprint()``, tenant ledgers,
recorders and trace events.
"""

import heapq
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BackpressureError, ConfigError, QueueFullError, WorkloadError
from repro.harness.latency import LatencyRecorder, LatencyTimeline
from repro.harness.runner import prepare_db
from repro.serve.arrivals import Arrival, Tenant, make_arrival_process
from repro.serve.queue import Request, RequestQueue
from repro.serve.server import (
    RECORD_BATCH,
    WRITE_KINDS,
    ServeSpec,
    _serve_result,
    _tenant_stats,
)
from repro.workload.ycsb import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_RMW,
    OP_SCAN,
    WorkloadGenerator,
)


def merge_tenant_arrivals(
    tenants: Sequence[Tenant],
    kind: str,
    seed: int,
    limit: int,
    **params: object,
) -> List[Arrival]:
    """The first ``limit`` arrivals across every tenant, time-ordered."""
    if not tenants:
        raise ConfigError("need at least one tenant")
    if limit < 0:
        raise ConfigError("limit must be non-negative")
    children = np.random.SeedSequence(seed).spawn(len(tenants))
    merged: List[Arrival] = []
    heap: List[Tuple[float, int, Iterator[float]]] = []
    for index, (tenant, child) in enumerate(zip(tenants, children)):
        process = make_arrival_process(kind, tenant.rate_ops_s, **params)
        rng = np.random.Generator(np.random.PCG64(child))
        timestamps = process.arrivals(rng)
        heap.append((next(timestamps), index, timestamps))
    heapq.heapify(heap)
    while heap and len(merged) < limit:
        timestamp, index, timestamps = heapq.heappop(heap)
        merged.append((timestamp, index))
        heapq.heappush(heap, (next(timestamps), index, timestamps))
    return merged


def admission_bound(
    db, serve: ServeSpec, operation, tenant: str = ""
) -> Optional[int]:
    if not serve.backpressure or operation[0] not in WRITE_KINDS:
        return None
    state = db.throttle_state()
    if state == "stop":
        raise BackpressureError(
            "write refused: engine L0 throttle is at 'stop'",
            tenant=tenant,
        )
    if state == "slowdown":
        return max(1, serve.queue_depth // 2)
    return None


def _execute(db, operation) -> None:
    kind = operation[0]
    if kind == OP_PUT:
        db.put(operation[1], operation[2])
    elif kind == OP_GET:
        db.get(operation[1])
    elif kind == OP_SCAN:
        db.scan(operation[1], operation[3])
    elif kind == OP_DELETE:
        db.delete(operation[1])
    elif kind == OP_RMW:
        current = db.get(operation[1])
        db.put(operation[1], operation[2] or current or b"")
    else:
        raise WorkloadError(f"unknown operation kind {kind!r}")


def serve_open_loop(
    db,
    operations,
    arrivals: Sequence[Arrival],
    workload_name: str,
    serve: ServeSpec,
    timeline_bucket_us: float = 1_000_000.0,
):
    """The parent's ``_serve_open_loop``: a ``serve_one`` call per request."""
    tenants = _tenant_stats(serve)
    queue = RequestQueue(serve.queue_depth, serve.discipline)
    waiting = queue.waiting
    wait_rec = LatencyRecorder()
    service_rec = LatencyRecorder()
    total_rec = LatencyRecorder()
    timeline = LatencyTimeline(bucket_us=timeline_bucket_us)
    clock = db.clock
    counters_get = db.registry._counters.get
    stall_total = counters_get("engine.stall_time_us", 0) + counters_get(
        "sched.device_wait_us", 0
    )
    start_time = clock.now()
    origin_us = start_time
    samples: List[Tuple[float, float, float]] = []
    tenant_samples: List[Tuple[List[float], List[float]]] = [
        ([], []) for _ in tenants
    ]
    events: List[Tuple[float, float, float]] = []

    def record_batch() -> None:
        if not samples:
            return
        waits, services, totals = zip(*samples)
        wait_rec.record_many(waits)
        service_rec.record_many(services)
        total_rec.record_many(totals)
        for stats, (mine_waits, mine_totals) in zip(tenants, tenant_samples):
            stats.wait_latencies.record_many(mine_waits)
            stats.total_latencies.record_many(mine_totals)
            mine_waits.clear()
            mine_totals.clear()
        timeline.record_many(events)
        samples.clear()
        events.clear()

    def serve_one(request: Request) -> None:
        nonlocal stall_total
        _seq, arrival_us, tenant_index, operation, _priority = request
        if clock._now_us < arrival_us:
            clock.advance_to(arrival_us)
        begin = clock._now_us
        wait_us = begin - arrival_us
        _execute(db, operation)
        service_us = clock._now_us - begin
        stalled = counters_get("engine.stall_time_us", 0) + counters_get(
            "sched.device_wait_us", 0
        )
        total_us = wait_us + service_us
        samples.append((wait_us, service_us, total_us))
        mine_waits, mine_totals = tenant_samples[tenant_index]
        mine_waits.append(wait_us)
        mine_totals.append(total_us)
        events.append((begin, total_us, stalled - stall_total))
        stall_total = stalled
        queue.complete()
        stats = tenants[tenant_index]
        stats.completed += 1
        if total_us > stats.slo_us:
            stats.slo_violations += 1

    operations = iter(operations)
    new_request = tuple.__new__
    pop = queue.pop
    seq = 0
    for arrival_rel_us, tenant_index in arrivals:
        try:
            operation = next(operations)
        except StopIteration:
            break
        arrival_us = origin_us + arrival_rel_us
        while waiting and clock._now_us < arrival_us:
            serve_one(pop())
        stats = tenants[tenant_index]
        request = new_request(
            Request,
            (seq, arrival_us, tenant_index, operation, stats.tenant.priority),
        )
        seq += 1
        if not seq % RECORD_BATCH:
            record_batch()
        try:
            effective_capacity = admission_bound(
                db, serve, operation, tenant=stats.tenant.name
            )
        except BackpressureError:
            queue.reject_external()
            stats.rejected_backpressure += 1
            continue
        try:
            queue.offer(request, effective_capacity=effective_capacity)
        except QueueFullError:
            stats.rejected_full += 1
    while waiting:
        serve_one(pop())
    record_batch()
    elapsed = clock.now() - start_time
    queue.stats.check_conservation(len(queue))
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


def serve_workload(spec, policy, serve: ServeSpec, config=None, profile=None,
                   db=None, tracer=None):
    """``repro.serve.serve_workload`` (open loop) through the parent's
    arrival merge and serve loop."""
    generator = WorkloadGenerator(spec)
    if db is None:
        kwargs = {} if profile is None else {"profile": profile}
        db = prepare_db(policy, generator.preload_operations(), config,
                        tracer=tracer, **kwargs)
    arrivals = merge_tenant_arrivals(
        serve.resolve_tenants(), serve.arrival, serve.seed,
        spec.num_operations, **dict(serve.arrival_params),
    )
    return serve_open_loop(db, generator.operations(), arrivals, spec.name, serve)
