"""Unit tests for the open-loop serving layer (repro.serve).

Covers the Poisson arrival stream (rate, determinism), the serve loop's
bounded request queue (FIFO order, rejection, its count check), admission
control with engine back-pressure, the serving loop's wait/service
decomposition and its SLO accounting.
"""

from collections import deque
from itertools import accumulate

import numpy as np
import pytest

from repro import ConfigError, DB, DeviceConfig, FlashSpec, ReproError
from repro.harness.latency import LatencyRecorder
from repro.harness.runner import prepare_db, run_workload
from repro.lsm.config import LSMConfig
from repro.serve import ServeSpec, poisson_arrivals, serve_workload, server
from repro.serve.server import RECORD_BATCH, WRITE_KINDS, _write_admission
from repro.workload import rwb, wo
from repro.workload.ycsb import OP_GET, OP_PUT, Operation, WorkloadGenerator


def child_stream(seed: int) -> np.random.Generator:
    """The generator ``poisson_arrivals`` draws from for ``seed``."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return np.random.Generator(np.random.PCG64(child))


# ----------------------------------------------------------------------
# Configuration is checked where it is made, not where it is served
# ----------------------------------------------------------------------
NAN, INF = float("nan"), float("inf")


class TestConfigValidation:
    """Each case used to pass construction and misbehave later."""

    @pytest.mark.parametrize("depth", [2.5, True, 0])
    def test_queue_depth_is_a_positive_int(self, depth):
        """2.5 used to admit 3 and ``True`` 1."""
        with pytest.raises(ConfigError, match="queue_depth"):
            ServeSpec(queue_depth=depth)

    @pytest.mark.parametrize("slo_us", [NAN, INF, -5.0, 0.0, True])
    def test_slo_is_finite_and_positive(self, slo_us):
        """NaN used to report a violation rate of 0.0 (every comparison
        false), -5 one of 1.0."""
        with pytest.raises(ConfigError, match="slo_us"):
            ServeSpec(slo_us=slo_us)

    @pytest.mark.parametrize("rate", [NAN, INF, -1.0, 0.0])
    def test_rates_are_finite_and_positive(self, rate):
        with pytest.raises(ConfigError, match="rate"):
            ServeSpec(rate_ops_s=rate)
        with pytest.raises(ConfigError, match="rate"):
            poisson_arrivals(rate, 1, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_is_a_non_negative_int(self, seed):
        """-1 used to pass construction and then fail in numpy's
        ``SeedSequence`` when serving started."""
        with pytest.raises(ConfigError, match="seed"):
            ServeSpec(seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            poisson_arrivals(1_000.0, seed, 1)

    @pytest.mark.parametrize("limit", [2.5, True, -1])
    def test_arrival_limit_is_a_non_negative_int(self, limit):
        """2.5 used to return three arrivals."""
        with pytest.raises(ConfigError, match="limit"):
            poisson_arrivals(1_000.0, 1, limit)

    def test_unknown_arrival_kind_fails_at_construction(self):
        with pytest.raises(ConfigError, match="known: poisson$"):
            ServeSpec(arrival="weibull")


# ----------------------------------------------------------------------
# The Poisson arrival stream
# ----------------------------------------------------------------------
class TestArrivalProcesses:
    def test_unknown_kind(self):
        """Poisson is the one process: the bursty and diurnal kinds are
        unknown, rejected where the spec is made."""
        for arrival in ("onoff", "diurnal"):
            with pytest.raises(ConfigError, match="known: poisson$"):
                ServeSpec(arrival=arrival)

    def test_poisson_mean_rate(self):
        gaps = np.diff(poisson_arrivals(10_000.0, 0, 20_000), prepend=0.0)
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.05)

    def test_arrivals_are_interval_prefix_sums(self):
        gaps = child_stream(3).exponential(200.0, 100)
        stamps = poisson_arrivals(5_000.0, 3, 100)
        assert stamps == pytest.approx(np.cumsum(gaps))

    def test_stream_is_the_first_child_of_the_seed(self):
        """One stream, drawn from ``SeedSequence(seed).spawn(1)[0]`` — the
        stream a one-tenant population drew — not from the seed itself."""
        stamps = poisson_arrivals(8_000.0, 13, 300)
        spawned = child_stream(13).exponential(125.0, 300).tolist()
        assert stamps == list(accumulate(spawned))
        unspawned = np.random.default_rng(13).exponential(125.0, 300).tolist()
        assert stamps != list(accumulate(unspawned))


# ----------------------------------------------------------------------
# Admission control / back-pressure
# ----------------------------------------------------------------------
def tiny_config(**overrides: object) -> LSMConfig:
    defaults = dict(
        memtable_bytes=2048,
        sstable_target_bytes=2048,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=4096,
        max_levels=6,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


def db_at_throttle(state: str) -> DB:
    """A real DB whose :meth:`throttle_state` reads ``state``.

    Synchronous mode self-heals — a put that crosses a trigger drains L0
    before returning — so rather than out-writing the engine we fill L0
    to its natural sub-trigger occupancy and pin the cached thresholds
    relative to what we observe.
    """
    db = DB(policy="udc", config=tiny_config())
    value = b"v" * 600
    key = 0
    while len(db.version.levels[0]) < 1:
        db.put(str(key).zfill(16).encode(), value)
        key += 1
    files = len(db.version.levels[0])
    if state == "none":
        db._l0_slowdown, db._l0_stop = files + 1, files + 2
    elif state == "slowdown":
        db._l0_slowdown, db._l0_stop = files, files + 1
    elif state == "stop":
        db._l0_slowdown, db._l0_stop = files, files
    else:  # pragma: no cover - test helper misuse
        raise AssertionError(state)
    return db


class TestAdmissionControl:
    def test_throttle_state_transitions(self):
        for state in ("none", "slowdown", "stop"):
            assert db_at_throttle(state).throttle_state() == state

    def test_fresh_store_is_unthrottled(self):
        assert DB(policy="udc", config=tiny_config()).throttle_state() == "none"

    def test_stop_refuses_writes_with_a_zero_bound(self):
        db = db_at_throttle("stop")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        assert _write_admission(db, serve) == 0
        # A read never reaches admission: the serve loop gates WRITE_KINDS.
        assert OP_GET not in WRITE_KINDS

    def test_slowdown_halves_write_bound(self):
        db = db_at_throttle("slowdown")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        assert _write_admission(db, serve) == 4
        # ... never below 1: a depth-1 queue still admits a write.
        assert _write_admission(db, ServeSpec(queue_depth=1)) == 1

    def test_unthrottled_store_imposes_no_bound(self):
        """No bound beyond the configured depth."""
        db = db_at_throttle("none")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        assert _write_admission(db, serve) == 8


# ----------------------------------------------------------------------
# The serve loop's request queue
# ----------------------------------------------------------------------
def burst(db: DB, operations, queue_depth: int):
    """Serve ``operations`` all arriving at the measured phase's first
    instant: the server serves nothing before the last arrival (at ``inf``),
    so every admission sees the depth the earlier arrivals left."""
    return serve_workload(
        SPEC, "udc", ServeSpec(queue_depth=queue_depth), db=db,
        operations=operations, arrivals=[0.0] * len(operations),
    )


def gets(count: int):
    return [Operation(OP_GET, b"k%04d" % index) for index in range(count)]


def put(index: int) -> Operation:
    return Operation(OP_PUT, b"p%04d" % index, b"v" * 100)


class TestRequestQueue:
    """The bounded FIFO the serve loop owns (a ``deque``), seen through
    whole runs."""

    def test_fifo_order(self):
        db = db_at_throttle("none")
        served = []
        get = db.get
        db.get = lambda key: served.append(key) or get(key)
        operations = gets(40)
        result = burst(db, operations, queue_depth=64)
        assert served == [operation.key for operation in operations]
        assert result.completed == 40

    def test_rejects_when_full(self):
        result = burst(db_at_throttle("none"), gets(5), queue_depth=2)
        assert (result.arrived, result.admitted, result.rejected_full,
                result.rejected_backpressure, result.completed) == (5, 2, 3, 0, 2)

    def test_effective_capacity_shrinks_bound(self):
        """At slowdown, writes are admitted under half the depth, reads under
        all of it."""
        operations = [put(0), put(1), put(2), *gets(3)]
        result = burst(db_at_throttle("slowdown"), operations, queue_depth=4)
        # put, put admitted; put refused at depth 2; get, get admitted;
        # the last get finds the queue at its depth of 4.
        assert (result.admitted, result.rejected_full,
                result.rejected_backpressure) == (4, 2, 0)

    def test_conservation_ledger(self):
        """At stop, a write is counted in ``rejected_backpressure``, not
        raised; the counts fill ``ServeResult`` and balance."""
        operations = [put(0), *gets(3)]
        result = burst(db_at_throttle("stop"), operations, queue_depth=2)
        assert (result.arrived, result.admitted, result.rejected_full,
                result.rejected_backpressure, result.completed) == (4, 2, 1, 1, 2)
        assert result.rejected == 2
        assert result.arrived == result.admitted + result.rejected
        assert result.admitted == result.completed == len(result.total_latencies)

    def test_an_unbalanced_ledger_is_a_typed_error(self, monkeypatch):
        """The end-of-run count check fires: a queue that loses what it is
        given leaves admitted requests never completed."""

        class LosingDeque(deque):
            def append(self, row):
                pass

        monkeypatch.setattr(server, "deque", LosingDeque)
        with pytest.raises(ReproError, match="serve ledger does not balance: "
                           "3 arrived, 3 admitted, 0 \\+ 0 rejected, 0 completed"):
            burst(db_at_throttle("none"), gets(3), queue_depth=8)


# ----------------------------------------------------------------------
# The serving loop
# ----------------------------------------------------------------------
SPEC = rwb(num_operations=1_200, key_space=400)


class TestServeWorkload:
    def test_unsaturated_load_completes_everything(self):
        serve = ServeSpec(arrival="poisson", rate_ops_s=2_000.0,
                          queue_depth=64, slo_us=5_000.0)
        result = serve_workload(SPEC, "udc", serve)
        assert result.arrived == SPEC.num_operations
        assert result.completed + result.rejected == result.arrived
        assert result.admitted == result.completed

    def test_wait_plus_service_equals_total(self):
        serve = ServeSpec(arrival="poisson", rate_ops_s=20_000.0,
                          queue_depth=64)
        result = serve_workload(SPEC, "udc", serve)
        waits = list(result.wait_latencies.values)
        services = list(result.service_latencies.values)
        totals = list(result.total_latencies.values)
        assert len(waits) == len(services) == len(totals) == result.completed
        for wait, service, total in zip(waits, services, totals):
            assert total == pytest.approx(wait + service)

    def test_open_loop_waits_exceed_closed_loop(self):
        # Above the knee, queue wait dominates: open-loop p99 must exceed
        # the same store's closed-loop (service-only) p99.
        serve = ServeSpec(arrival="poisson", rate_ops_s=60_000.0,
                          queue_depth=128)
        open_result = serve_workload(SPEC, "udc", serve)
        closed = run_workload(SPEC, "udc")
        assert (
            open_result.total_latencies.percentile(99.0)
            > closed.latencies.percentile(99.0)
        )
        assert open_result.mean_wait_us() > 0.0

    def test_deterministic_fingerprint(self):
        serve = ServeSpec(rate_ops_s=10_000.0, seed=5)
        one = serve_workload(SPEC, "ldc", serve)
        two = serve_workload(SPEC, "ldc", serve)
        assert one.fingerprint() == two.fingerprint()

    def test_tight_queue_rejects_under_overload(self):
        serve = ServeSpec(arrival="poisson", rate_ops_s=60_000.0,
                          queue_depth=2, slo_us=500.0)
        result = serve_workload(SPEC, "udc", serve)
        assert result.rejected_full > 0
        assert result.rejection_rate > 0.0
        # Rejections count as SLO violations.
        assert result.slo_violation_rate >= result.rejection_rate

    def test_a_fixed_pair_rejects_and_back_pressures_at_both_states(self):
        """A full queue, then back-pressure at slowdown and at stop.  (Each
        operation first replays the background work its idle gap owes, so
        90-byte values no longer fill Level 0 to the stop trigger at any
        rate; 300-byte values do, from 15k to 25k ops/s.)"""
        spec = wo(num_operations=1_500, key_space=300, preload_keys=300,
                  value_bytes=300, key_bytes=12, seed=5)
        config = tiny_config(bg_threads=1, l0_compaction_trigger=2,
                             l0_slowdown_trigger=3, l0_stop_trigger=5)
        flash = FlashSpec(page_bytes=512, pages_per_block=8, logical_bytes=1 << 20)
        db = prepare_db("ldc", WorkloadGenerator(spec).preload_operations(),
                        config, DeviceConfig(flash=flash))
        states = set()
        throttle_state = db.throttle_state

        def noting():
            state = throttle_state()
            states.add(state)
            return state

        db.throttle_state = noting
        serve = ServeSpec(rate_ops_s=20_000.0, queue_depth=3, seed=5)
        result = serve_workload(spec, "ldc", serve, db=db)
        assert result.rejected_full > 0
        assert result.rejected_backpressure > 0
        assert states == {"none", "slowdown", "stop"}

    @pytest.mark.parametrize(
        "serve",
        [
            # Overload and a short queue: rejections between completions.
            ServeSpec(rate_ops_s=60_300.0, queue_depth=16),
        ],
        ids=["open"],
    )
    def test_batched_recorders_equal_a_per_sample_replay(self, serve, monkeypatch):
        """The serve loop buffers samples and records them a batch at a time;
        the same run with every batch fed through per-sample ``record`` must
        leave every recorder in the same state."""

        def recorder_state(recorder):
            histogram = recorder.histogram
            return (
                list(recorder.values), len(recorder), recorder.is_sampled,
                recorder.mean() if len(recorder) else None,
                dict(histogram._buckets), histogram.count, histogram.total,
                histogram._min, histogram._max,
            )

        def all_states(result):
            recorders = [result.wait_latencies, result.service_latencies,
                         result.total_latencies]
            return [recorder_state(recorder) for recorder in recorders]

        record_many = LatencyRecorder.record_many

        def per_sample(recorder, latencies):
            for latency in latencies:
                record_many(recorder, (latency,))

        batched = serve_workload(SPEC, "ldc", serve)
        monkeypatch.setattr(LatencyRecorder, "record_many", per_sample)
        replayed = serve_workload(SPEC, "ldc", serve)
        monkeypatch.undo()

        assert all_states(batched) == all_states(replayed)
        assert batched.fingerprint() == replayed.fingerprint()
        # Several full batches and a remainder, none left in the buffer.
        assert batched.completed > 2 * RECORD_BATCH
        assert batched.completed % RECORD_BATCH
        assert len(batched.total_latencies) == batched.completed
        assert len(batched.wait_latencies) == batched.completed
        assert batched.rejected_full > 0
