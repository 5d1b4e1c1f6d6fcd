"""The per-request serve loop, kept as a test oracle.

A served request used to cost the serving layer a call per step: the
loop popped it (``RequestQueue.pop``), served it in a closure
(``serve_one``, with ``_execute`` dispatching and ``queue.complete``
booking it) and offered each arrival through ``admission_bound`` and
``RequestQueue.offer``, which raised ``QueueFullError`` to reject.
``src/`` now serves a request inline in one loop; the parent's routine
lives on here as the reference ``tests/test_stack_equivalence.py``
pair-runs against: the same ``ServeResult.fingerprint()``, ledger,
recorders and trace events.  It is verbatim but for what went with
tenants: it books one ledger of plain counts, where it booked one per
tenant, and takes its arrivals from ``poisson_arrivals``, where it drew
them from a heap merge of the tenants' streams; and it builds a
``Request`` without the ``seq`` field that ``Request`` no longer has (its
``seq`` counter still paces ``record_batch``); and its ``admission_bound``
gates the writes always, where it first tested ``ServeSpec.backpressure``,
a field that is gone.
"""

from typing import List, Optional, Sequence, Tuple

from repro.errors import BackpressureError, QueueFullError, WorkloadError
from repro.harness.latency import LatencyRecorder, LatencyTimeline
from repro.harness.runner import prepare_db
from repro.serve.arrivals import poisson_arrivals
from repro.serve.queue import Request, RequestQueue
from repro.serve.server import RECORD_BATCH, WRITE_KINDS, ServeResult, ServeSpec
from repro.workload.ycsb import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_RMW,
    OP_SCAN,
    WorkloadGenerator,
)


def admission_bound(db, serve: ServeSpec, operation) -> Optional[int]:
    if operation[0] not in WRITE_KINDS:
        return None
    state = db.throttle_state()
    if state == "stop":
        raise BackpressureError("write refused: engine L0 throttle is at 'stop'")
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
    arrivals: Sequence[float],
    workload_name: str,
    serve: ServeSpec,
    timeline_bucket_us: float = 1_000_000.0,
):
    """The parent's ``_serve_open_loop``: a ``serve_one`` call per request."""
    completed = rejected_full = rejected_backpressure = slo_violations = 0
    queue = RequestQueue(serve.queue_depth)
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
    events: List[Tuple[float, float, float]] = []

    def record_batch() -> None:
        if not samples:
            return
        waits, services, totals = zip(*samples)
        wait_rec.record_many(waits)
        service_rec.record_many(services)
        total_rec.record_many(totals)
        timeline.record_many(events)
        samples.clear()
        events.clear()

    def serve_one(request: Request) -> None:
        nonlocal stall_total, completed, slo_violations
        arrival_us, operation = request
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
        events.append((begin, total_us, stalled - stall_total))
        stall_total = stalled
        queue.complete()
        completed += 1
        if total_us > serve.slo_us:
            slo_violations += 1

    operations = iter(operations)
    new_request = tuple.__new__
    pop = queue.pop
    seq = 0
    for arrival_rel_us in arrivals:
        try:
            operation = next(operations)
        except StopIteration:
            break
        arrival_us = origin_us + arrival_rel_us
        while waiting and clock._now_us < arrival_us:
            serve_one(pop())
        request = new_request(Request, (arrival_us, operation))
        seq += 1
        if not seq % RECORD_BATCH:
            record_batch()
        try:
            effective_capacity = admission_bound(db, serve, operation)
        except BackpressureError:
            queue.reject_external()
            rejected_backpressure += 1
            continue
        try:
            queue.offer(request, effective_capacity=effective_capacity)
        except QueueFullError:
            rejected_full += 1
    while waiting:
        serve_one(pop())
    record_batch()
    elapsed = clock.now() - start_time
    queue.stats.check_conservation(len(queue))
    return ServeResult(
        workload=workload_name,
        policy=db.policy.name,
        arrival=serve.arrival,
        offered_rate_ops_s=float(serve.rate_ops_s),
        queue_depth=serve.queue_depth,
        slo_us=serve.slo_us,
        arrived=queue.stats.arrived,
        admitted=queue.stats.admitted,
        rejected_full=rejected_full,
        rejected_backpressure=rejected_backpressure,
        completed=completed,
        slo_violations=slo_violations,
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
    serve loop."""
    generator = WorkloadGenerator(spec)
    if db is None:
        kwargs = {} if profile is None else {"profile": profile}
        db = prepare_db(policy, generator.preload_operations(), config,
                        tracer=tracer, **kwargs)
    arrivals = poisson_arrivals(serve.rate_ops_s, serve.seed, spec.num_operations)
    return serve_open_loop(db, generator.operations(), arrivals, spec.name, serve)
