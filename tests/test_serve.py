"""Unit tests for the open-loop serving layer (repro.serve).

Covers the Poisson arrival stream (rate, determinism), the bounded
request queue (FIFO order, rejection, conservation ledger), admission
control with engine back-pressure, the serving loop's wait/service
decomposition and its SLO accounting.
"""

import numpy as np
import pytest

from repro import (
    BackpressureError,
    ConfigError,
    DB,
    DeviceConfig,
    FlashSpec,
    QueueFullError,
)
from repro.errors import AdmissionError
from repro.harness.latency import LatencyRecorder
from repro.harness.runner import prepare_db, run_workload
from repro.lsm.config import LSMConfig
from repro.serve import RequestQueue, ServeSpec, poisson_arrivals, serve_workload
from repro.serve.arrivals import PoissonProcess
from repro.serve.queue import Request
from repro.serve.server import RECORD_BATCH, WRITE_KINDS, _write_admission
from repro.workload import rwb, wo
from repro.workload.ycsb import OP_GET, Operation, WorkloadGenerator


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


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
            PoissonProcess(rate)

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

    @pytest.mark.parametrize("capacity", [2.5, True, 0])
    def test_queue_capacity_is_a_positive_int(self, capacity):
        with pytest.raises(ConfigError, match="capacity"):
            RequestQueue(capacity)

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
        process = PoissonProcess(10_000.0)
        gaps = take(process.intervals(rng()), 20_000)
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.05)

    def test_arrivals_are_interval_prefix_sums(self):
        process = PoissonProcess(5_000.0)
        gaps = take(process.intervals(rng(3)), 100)
        stamps = take(process.arrivals(rng(3)), 100)
        assert stamps == pytest.approx(np.cumsum(gaps))

    def test_stream_is_the_first_child_of_the_seed(self):
        """One stream, drawn from ``SeedSequence(seed).spawn(1)[0]`` — the
        stream a one-tenant population drew — not from the seed itself."""
        stamps = poisson_arrivals(8_000.0, 13, 300)
        child = np.random.SeedSequence(13).spawn(1)[0]
        spawned = PoissonProcess(8_000.0).arrivals(
            np.random.Generator(np.random.PCG64(child)))
        assert stamps == take(spawned, 300)
        unspawned = PoissonProcess(8_000.0).arrivals(
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(13))))
        assert stamps != take(unspawned, 300)


# ----------------------------------------------------------------------
# Request queue
# ----------------------------------------------------------------------
def request(index: int) -> Request:
    """The ``index``-th arrival: FIFO order is ``arrival_us`` order."""
    return Request(arrival_us=float(index), operation=Operation(OP_GET, b"k"))


class TestRequestQueue:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RequestQueue(0)

    def test_fifo_order(self):
        queue = RequestQueue(8)
        for seq in range(5):
            queue.offer(request(seq))
        assert [queue.pop().arrival_us for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_rejects_when_full(self):
        queue = RequestQueue(2)
        queue.offer(request(0))
        queue.offer(request(1))
        with pytest.raises(QueueFullError) as excinfo:
            queue.offer(request(2))
        assert excinfo.value.depth == 2
        assert isinstance(excinfo.value, AdmissionError)
        assert queue.stats.rejected == 1

    def test_effective_capacity_shrinks_bound(self):
        queue = RequestQueue(8)
        queue.offer(request(0))
        with pytest.raises(QueueFullError):
            queue.offer(request(1), effective_capacity=1)
        # The shrunken bound never exceeds the configured capacity.
        queue.offer(request(2), effective_capacity=100)

    def test_conservation_ledger(self):
        queue = RequestQueue(2)
        queue.offer(request(0))
        queue.offer(request(1))
        with pytest.raises(QueueFullError):
            queue.offer(request(2))
        queue.reject_external()
        queue.pop()
        queue.complete()
        assert queue.stats.arrived == 4
        assert queue.stats.admitted == 2
        assert queue.stats.rejected == 2
        assert queue.stats.completed == 1
        queue.stats.check_conservation(queue.depth)

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigError):
            RequestQueue(2).pop()

    def test_fifo_compaction_keeps_order(self):
        queue = RequestQueue(10_000)
        for seq in range(6_000):
            queue.offer(request(seq))
        popped = [queue.pop().arrival_us for _ in range(5_000)]
        assert popped == list(range(5_000))
        for seq in range(6_000, 6_100):
            queue.offer(request(seq))
        rest = [queue.pop().arrival_us for _ in range(queue.depth)]
        assert rest == list(range(5_000, 6_100))


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

    def test_stop_raises_backpressure_for_writes_only(self):
        db = db_at_throttle("stop")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        with pytest.raises(BackpressureError) as excinfo:
            _write_admission(db, serve)
        assert isinstance(excinfo.value, AdmissionError)
        # A read never reaches admission: the serve loop gates WRITE_KINDS.
        assert OP_GET not in WRITE_KINDS

    def test_slowdown_halves_write_bound(self):
        db = db_at_throttle("slowdown")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        assert _write_admission(db, serve) == 4

    def test_unthrottled_store_imposes_no_bound(self):
        db = db_at_throttle("none")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        assert _write_admission(db, serve) is None


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
