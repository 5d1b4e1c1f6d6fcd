"""The per-operation measurement loop, kept as a test oracle.

``harness.runner`` used to select between this loop and the chunked one
through a ``chunk_size`` argument that only the chunked == per-op
differential ever set.  The straight loop — one recorder call per
operation, counters read through ``registry.counter`` — lives on here,
verbatim, as the reference the runner's chunked loop is compared against:
same latencies in the same order, same timeline, same counters.

``run_workload_per_op`` is ``run_workload`` with the runner's loop swapped
for :func:`_run_per_op`.
"""

from typing import Dict
from unittest import mock

from repro.errors import WorkloadError
from repro.harness import runner
from repro.harness.latency import LatencyRecorder, LatencyTimeline
from repro.lsm.db import DB
from repro.workload.ycsb import OP_DELETE, OP_GET, OP_PUT, OP_RMW, OP_SCAN


def _run_per_op(
    db: DB,
    operations,
    recorders: Dict[str, LatencyRecorder],
    overall: LatencyRecorder,
    timeline: LatencyTimeline,
) -> int:
    """The reference measurement loop: one dispatch per operation."""
    clock = db.clock
    count = 0
    # Stall attribution: throttle time (both modes) plus device-channel
    # waits behind background chunks (scheduler only).  Counter reads
    # do not touch the clock, so the scheduler-off timing is unchanged.
    counter = db.registry.counter
    stall_total = counter("engine.stall_time_us") + counter("sched.device_wait_us")

    for operation in operations:
        begin = clock.now()
        if operation.kind == OP_PUT:
            db.put(operation.key, operation.value)
        elif operation.kind == OP_GET:
            db.get(operation.key)
        elif operation.kind == OP_SCAN:
            db.scan(operation.key, operation.scan_length)
        elif operation.kind == OP_DELETE:
            db.delete(operation.key)
        elif operation.kind == OP_RMW:
            current = db.get(operation.key)
            db.put(operation.key, operation.value or current or b"")
        else:
            raise WorkloadError(f"unknown operation kind {operation.kind!r}")
        latency = clock.now() - begin
        stalled = counter("engine.stall_time_us") + counter("sched.device_wait_us")
        recorders[operation.kind].record(latency)
        overall.record(latency)
        timeline.record(begin, latency, stall_us=stalled - stall_total)
        stall_total = stalled
        count += 1
    return count


def run_workload_per_op(spec, policy_factory, **kwargs):
    """``runner.run_workload`` driven by the per-op loop."""
    with mock.patch.object(runner, "_run_chunked", _run_per_op):
        return runner.run_workload(spec, policy_factory, **kwargs)
