"""Pair-runs: the composed stack's one-pass routines against their oracles.

Three replacements, each compared with the routine it replaced (the
fourth, the scheduler's run replay, is pair-run step for step by
``tests/test_sched_properties.py`` against ``tests/_pump_oracle.py``):

* the serve loop that serves a request inline, with its arrivals merged
  by ``heapq.merge`` — against ``tests/_serve_oracle.py``'s per-request
  loop and heap merge, over the parent's FTL and per-chunk replay too:
  the same ``ServeResult.fingerprint()``, tenant ledgers, recorders and
  trace events, over arrival kinds, tenant mixes, queue disciplines and
  depths that reject, back-pressure at slowdown and stop, flash on and
  off and 0, 1 or 3 background threads;
* the arrival merge alone, which must also never draw a tenant past what
  it yields;
* the FTL programming a block run — against ``tests/_flash_oracle.py``'s
  page-at-a-time programming: every table, counter and gauge after every
  write and trim, GC relocations, a full device and crash points inside
  GC charges included.
"""

from dataclasses import replace
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DeviceConfig, FlashSpec, RingBufferSink, SimulatedSSD, Tracer
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.harness.runner import build_db
from repro.lsm.config import LSMConfig
from repro.serve import ServeSpec, Tenant, serve_workload
from repro.serve import arrivals as arrivals_module
from repro.serve.arrivals import merge_tenant_arrivals
from repro.ssd.metrics import GC_READ, GC_WRITE
from repro.workload.spec import rwb, scn_rwb, wo
from repro.workload.ycsb import OP_PUT, OP_RMW, Operation, WorkloadGenerator

from . import _serve_oracle as serve_oracle
from ._flash_oracle import OracleFTL, ftl_state
from ._pump_oracle import ChunkReplayScheduler

KINDS = ("poisson", "onoff", "diurnal")

PAIRS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The arrival merge
# ----------------------------------------------------------------------
class TestArrivalMerge:
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rates=st.lists(st.floats(min_value=50.0, max_value=50_000.0),
                       min_size=1, max_size=5),
        limit=st.integers(min_value=0, max_value=600),
    )
    @PAIRS
    def test_heapq_merge_is_the_heap_merge(self, kind, seed, rates, limit):
        tenants = [Tenant(f"t{i}", rate) for i, rate in enumerate(rates)]
        ours = merge_tenant_arrivals(tenants, kind, seed, limit)
        assert ours == serve_oracle.merge_tenant_arrivals(tenants, kind, seed, limit)
        assert len(ours) == limit

    @pytest.mark.parametrize("tenants", [1, 3, 20])
    @pytest.mark.parametrize("limit", [0, 1, 2, 500])
    def test_no_tenant_is_drawn_past_what_the_merge_yields(
        self, monkeypatch, tenants, limit
    ):
        """Each tenant's head, then one draw per arrival yielded after the
        first: ``limit + tenants - 1`` draws (the heap drew ``limit +
        tenants``), and none at all for ``limit=0``."""
        drawn = count()
        make = arrivals_module.make_arrival_process

        def counted(kind, rate, **params):
            process = make(kind, rate, **params)
            stamps = process.arrivals

            def arrivals(rng):
                for stamp in stamps(rng):
                    next(drawn)
                    yield stamp

            process.arrivals = arrivals
            return process

        monkeypatch.setattr(arrivals_module, "make_arrival_process", counted)
        population = [Tenant(f"t{i}", 1_000.0 * (i + 1)) for i in range(tenants)]
        merged = merge_tenant_arrivals(population, "poisson", 3, limit)
        assert len(merged) == limit
        assert next(drawn) == (limit + tenants - 1 if limit else 0)


# ----------------------------------------------------------------------
# The serve loop
# ----------------------------------------------------------------------
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

tenant_mixes = st.lists(
    st.tuples(
        st.floats(min_value=2_000.0, max_value=80_000.0),  # rate
        st.integers(min_value=0, max_value=2),  # priority
        st.one_of(st.none(), st.floats(min_value=20.0, max_value=3_000.0)),
    ),
    min_size=1,
    max_size=3,
)


def operations_of(spec, rmw_every: int) -> list:
    """The spec's stream with every ``rmw_every``-th put made a read-modify-write."""
    ops = list(WorkloadGenerator(spec).operations())
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

    tenants = [
        (stats.tenant, stats.slo_us, stats.completed, stats.rejected_full,
         stats.rejected_backpressure, stats.slo_violations,
         recorder(stats.wait_latencies), recorder(stats.total_latencies))
        for stats in result.tenant_stats
    ]
    return (
        result.fingerprint(),
        result.summary(),
        tenants,
        [recorder(r) for r in (result.wait_latencies, result.service_latencies,
                               result.total_latencies)],
        [(e.kind, e.t_us, e.fields) for e in sink.events],
    )


class TestServeLoop:
    @given(
        kind=st.sampled_from(KINDS),
        mix=tenant_mixes,
        explicit=st.booleans(),
        discipline=st.sampled_from(("fifo", "priority")),
        queue_depth=st.integers(min_value=1, max_value=12),
        backpressure=st.booleans(),
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
        self, kind, mix, explicit, discipline, queue_depth, backpressure,
        throttle, flash, bg_threads, scans, rmw_every, seed, slo_us,
    ):
        make = scn_rwb if scans else rwb
        spec = make(num_operations=240, key_space=120, preload_keys=120,
                    value_bytes=90, key_bytes=12, delete_ratio=0.1,
                    scan_length=8, seed=seed)
        if explicit:
            tenants = tuple(
                Tenant(f"tenant{i}", rate, priority=priority, slo_us=slo)
                for i, (rate, priority, slo) in enumerate(mix)
            )
            serve = ServeSpec(arrival=kind, tenants=tenants, seed=seed,
                              queue_depth=queue_depth, discipline=discipline,
                              slo_us=slo_us, backpressure=backpressure)
        else:
            serve = ServeSpec(arrival=kind, rate_ops_s=mix[0][0],
                              num_tenants=len(mix), seed=seed,
                              queue_depth=queue_depth, discipline=discipline,
                              slo_us=slo_us, backpressure=backpressure)
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
    """Serve ``ops`` through this tree and through the parent's stack (serve
    loop, arrival merge, FTL, replay); assert the outcomes equal.  Returns
    this tree's result and the throttle states its admissions saw."""
    outcomes, states = [], set()
    for oracle in (False, True):
        sink = RingBufferSink()
        db = build_db(
            "ldc", config=serve_config(bg_threads, throttle),
            profile=DeviceConfig(flash=FLASH) if flash else DeviceConfig(),
            tracer=Tracer([sink]),
        )
        if oracle:
            if flash:
                OracleFTL.install(db.device)
            if bg_threads:
                ChunkReplayScheduler.install(db)
        for op in WorkloadGenerator(spec).preload_operations():
            db.put(op.key, op.value)
        db.policy.maybe_compact()
        db.reset_measurements()
        if oracle:
            arrivals = serve_oracle.merge_tenant_arrivals(
                serve.resolve_tenants(), serve.arrival, serve.seed, len(ops))
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


# ----------------------------------------------------------------------
# The FTL
# ----------------------------------------------------------------------
TINY = FlashSpec(page_bytes=256, pages_per_block=4, logical_bytes=8 * 1024,
                 over_provisioning=0.25, gc_reserve_blocks=2)

ftl_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 5),
                  st.integers(1, 24 * TINY.page_bytes)),
        st.tuples(st.just("stream"), st.integers(0, 1),
                  st.integers(1, 3 * TINY.page_bytes)),
        st.tuples(st.just("trim"), st.integers(0, 5), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


def ftl_step(device, kind, owner, nbytes):
    try:
        if kind == "write":
            device.write(nbytes, "flush_write", sequential=True, owner=owner)
        elif kind == "stream":
            device.write(nbytes, "wal_write", sequential=True,
                         owner=("wal", owner), stream=True)
        else:
            device.trim(owner)
    except ReproError as error:  # a full device, an injected crash
        return type(error).__name__, str(error)
    return None


class TestFlashBlockRun:
    @given(
        ops=ftl_ops,
        gc_policy=st.sampled_from(("greedy", "cost_benefit")),
        crash=st.one_of(
            st.none(),
            st.tuples(st.integers(1, 6), st.sampled_from((GC_READ, GC_WRITE))),
        ),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_block_runs_are_the_page_loop(self, ops, gc_policy, crash):
        spec = replace(TINY, gc_policy=gc_policy)
        devices = []
        for oracle in (False, True):
            plan = None if crash is None else FaultPlan().crash_at(
                crash[0], category=crash[1])
            device = SimulatedSSD(DeviceConfig(flash=spec), fault_plan=plan)
            if oracle:
                OracleFTL.install(device)
            devices.append(device)
        new, old = devices
        for kind, owner, nbytes in ops:
            assert ftl_step(new, kind, owner, nbytes) == ftl_step(old, kind, owner, nbytes)
            assert ftl_state(new.flash) == ftl_state(old.flash)

    def test_a_fixed_schedule_relocates_crashes_in_gc_and_fills_up(self):
        """Churn that keeps seven five-page owners live on a 48-page
        device, so GC relocates (and, crashed at its second write, stops
        mid-charge) and at times finds nothing to reclaim — both FTLs alike."""
        schedule = []
        for n in range(40):
            schedule.append(("write", n, 5 * TINY.page_bytes))
            if n >= 7:
                schedule.append(("trim", n - 7, 0))
        devices = [
            SimulatedSSD(DeviceConfig(flash=TINY),
                         fault_plan=FaultPlan().crash_at(2, category=GC_WRITE))
            for _ in range(2)
        ]
        new, old = devices
        OracleFTL.install(old)
        raised = set()
        for step in schedule:
            outcome = ftl_step(new, *step)
            assert outcome == ftl_step(old, *step)
            assert ftl_state(new.flash) == ftl_state(old.flash)
            if outcome:
                raised.add(outcome[0])
        assert new.registry.counter("flash.gc_pages_relocated") > 0
        assert raised == {"SimulatedCrash", "FlashFullError"}
