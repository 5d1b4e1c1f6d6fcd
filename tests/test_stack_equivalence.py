"""Pair-run: the composed stack's serve loop against its oracle.

The serve loop that serves a request inline is compared with
``tests/_serve_oracle.py``'s per-request loop, over the parent's per-chunk
replay too (the replay itself is pair-run step for step by
``tests/test_sched_properties.py`` against ``tests/_pump_oracle.py``):
the same ``ServeResult.fingerprint()``, ledger, recorders and trace
events, over seeds, rates, queue depths that reject, back-pressure on
and off and at slowdown and stop, flash on and off and 0, 1 or 3
background threads.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DeviceConfig, FlashSpec, RingBufferSink, Tracer
from repro.harness.runner import build_db
from repro.lsm.config import LSMConfig
from repro.serve import ServeSpec, poisson_arrivals, serve_workload
from repro.workload.spec import rwb, scn_rwb, wo
from repro.workload.ycsb import OP_PUT, OP_RMW, Operation, WorkloadGenerator

from tests.conftest import with_deletes

from . import _serve_oracle as serve_oracle
from ._pump_oracle import ChunkReplayScheduler

PAIRS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def serve_config(bg_threads: int, throttle: bool) -> LSMConfig:
    """A tiny tree; with ``throttle`` Level 0 slows down at 3 files and
    stops at 5, so admission back-pressures at both states."""
    triggers = (
        dict(l0_compaction_trigger=2, l0_slowdown_trigger=3, l0_stop_trigger=5)
        if throttle else {}
    )
    return LSMConfig(
        memtable_bytes=2048, sstable_target_bytes=2048, block_bytes=512,
        fan_out=4, level1_capacity_bytes=4096, max_levels=6,
        bg_threads=bg_threads, **triggers,
    )


FLASH = FlashSpec(page_bytes=512, pages_per_block=8, logical_bytes=1 << 20)

def operations_of(spec, rmw_every: int) -> list:
    """The spec's stream with every tenth put made a delete, then every
    ``rmw_every``-th operation that is still a put a read-modify-write."""
    ops = with_deletes(WorkloadGenerator(spec).operations(), 10)
    if rmw_every:
        ops = [
            Operation(OP_RMW, op.key, op.value if n % 2 else None)
            if op.kind == OP_PUT and not n % rmw_every else op
            for n, op in enumerate(ops)
        ]
    return ops


def serve_outcome(result, sink) -> tuple:
    def recorder(rec):
        hist = rec.histogram
        return (list(rec.values), len(rec), hist.count, hist.total,
                hist._min, hist._max, sorted(hist._buckets.items()))

    return (
        result.fingerprint(),
        result.summary(),
        result.slo_violations,
        [recorder(r) for r in (result.wait_latencies, result.service_latencies,
                               result.total_latencies)],
        [(e.kind, e.t_us, e.fields) for e in sink.events],
    )


class TestServeLoop:
    @given(
        rate=st.floats(min_value=2_000.0, max_value=80_000.0),
        queue_depth=st.integers(min_value=1, max_value=12),
        throttle=st.booleans(),
        flash=st.booleans(),
        bg_threads=st.sampled_from((0, 1, 3)),
        scans=st.booleans(),
        rmw_every=st.sampled_from((0, 5)),
        seed=st.integers(min_value=0, max_value=2**16),
        slo_us=st.floats(min_value=20.0, max_value=3_000.0),
    )
    @PAIRS
    def test_one_loop_is_the_per_request_loop(
        self, rate, queue_depth, throttle, flash, bg_threads,
        scans, rmw_every, seed, slo_us,
    ):
        make = scn_rwb if scans else rwb
        spec = make(num_operations=240, key_space=120, preload_keys=120,
                    value_bytes=90, key_bytes=12, scan_length=8, seed=seed)
        serve = ServeSpec(rate_ops_s=rate, seed=seed, queue_depth=queue_depth,
                          slo_us=slo_us)
        ops = operations_of(spec, rmw_every)
        serve_pair(spec, serve, ops, bg_threads, throttle, flash)

    def test_a_fixed_pair_rejects_and_back_pressures_at_both_states(self):
        """Where the drawn examples may or may not land: a full queue,
        then back-pressure at slowdown and at stop, both sides alike.
        (Each operation first replays the background work its idle gap
        owes, so 90-byte values no longer fill Level 0 to the stop
        trigger at any rate; 300-byte values do, from 15k to 25k ops/s.)"""
        spec = wo(num_operations=1_500, key_space=300, preload_keys=300,
                  value_bytes=300, key_bytes=12, seed=5)
        serve = ServeSpec(rate_ops_s=20_000.0, queue_depth=3, seed=5)
        ops = list(WorkloadGenerator(spec).operations())
        result, states = serve_pair(spec, serve, ops, 1, True, True)
        assert result.rejected_full > 0
        assert result.rejected_backpressure > 0
        assert states == {"none", "slowdown", "stop"}


def serve_pair(spec, serve, ops, bg_threads, throttle, flash):
    """Serve ``ops`` through this tree and through the parent's serve loop
    and replay from the same arrivals; assert the outcomes equal.  Returns
    this tree's result and the throttle states its admissions saw."""
    outcomes, states = [], set()
    for oracle in (False, True):
        sink = RingBufferSink()
        db = build_db(
            "ldc", config=serve_config(bg_threads, throttle),
            profile=DeviceConfig(flash=FLASH) if flash else DeviceConfig(),
            tracer=Tracer([sink]),
        )
        if oracle and bg_threads:
            ChunkReplayScheduler.install(db)
        for op in WorkloadGenerator(spec).preload_operations():
            db.put(op.key, op.value)
        db.policy.maybe_compact()
        db.reset_measurements()
        if oracle:
            arrivals = poisson_arrivals(serve.rate_ops_s, serve.seed, len(ops))
            outcomes.append(serve_outcome(
                serve_oracle.serve_open_loop(db, ops, arrivals, spec.name, serve),
                sink,
            ))
        else:
            throttle_state = db.throttle_state

            def noting():
                state = throttle_state()
                states.add(state)
                return state

            db.throttle_state = noting
            result = serve_workload(spec, "ldc", serve, db=db, operations=ops)
            outcomes.append(serve_outcome(result, sink))
        db.check_invariants()
    assert outcomes[0] == outcomes[1]
    return result, states
