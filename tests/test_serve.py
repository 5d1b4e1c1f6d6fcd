"""Unit tests for the open-loop serving layer (repro.serve).

Covers the arrival processes (rates, determinism, tenant merging), the
bounded request queue (disciplines, rejection, conservation ledger),
admission control with engine back-pressure, the serving loop's
wait/service decomposition, and per-tenant SLO accounting and namespaced
metrics.
"""

import numpy as np
import pytest

from repro import BackpressureError, ConfigError, DB, QueueFullError
from repro.errors import AdmissionError
from repro.harness.latency import LatencyRecorder
from repro.harness.runner import run_workload
from repro.lsm.config import LSMConfig
from repro.serve import (
    DiurnalProcess,
    OnOffProcess,
    PoissonProcess,
    Request,
    RequestQueue,
    ServeSpec,
    Tenant,
    admission_bound,
    make_arrival_process,
    merge_tenant_arrivals,
    serve_workload,
    split_rate,
)
from repro.serve.server import RECORD_BATCH
from repro.workload import rwb
from repro.workload.ycsb import OP_GET, OP_PUT, Operation


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


# ----------------------------------------------------------------------
# Tenants
# ----------------------------------------------------------------------
class TestTenant:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Tenant(name="", rate_ops_s=1.0)
        with pytest.raises(ConfigError):
            Tenant(name="t", rate_ops_s=0.0)
        with pytest.raises(ConfigError):
            Tenant(name="t", rate_ops_s=1.0, population=0)

    def test_population_aggregation(self):
        crowd = Tenant.of_population("crowd", users=1_000_000,
                                     per_user_rate_ops_s=0.5)
        assert crowd.rate_ops_s == 500_000.0
        assert crowd.population == 1_000_000
        assert crowd.per_user_rate_ops_s == 0.5

    def test_split_rate(self):
        tenants = split_rate(9000.0, 3)
        assert [t.name for t in tenants] == ["t0", "t1", "t2"]
        assert sum(t.rate_ops_s for t in tenants) == pytest.approx(9000.0)


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
        with pytest.raises(ConfigError, match="slo_us"):
            Tenant("t", 100.0, slo_us=slo_us)

    @pytest.mark.parametrize("count", [2.5, False, 0])
    def test_num_tenants_is_a_positive_int(self, count):
        """2.5 used to raise a raw TypeError from range() at serve time."""
        with pytest.raises(ConfigError, match="num_tenants"):
            ServeSpec(num_tenants=count)
        with pytest.raises(ConfigError, match="tenant count"):
            split_rate(1_000.0, count)

    @pytest.mark.parametrize("rate", [NAN, INF, -1.0, 0.0])
    def test_rates_are_finite_and_positive(self, rate):
        with pytest.raises(ConfigError, match="rate"):
            Tenant("t", rate)
        with pytest.raises(ConfigError, match="rate"):
            ServeSpec(rate_ops_s=rate)
        with pytest.raises(ConfigError, match="rate"):
            split_rate(rate, 2)
        with pytest.raises(ConfigError, match="rate"):
            make_arrival_process("poisson", rate)

    @pytest.mark.parametrize("population", [2.5, True])
    def test_population_is_an_int(self, population):
        with pytest.raises(ConfigError, match="population"):
            Tenant("t", 100.0, population=population)

    @pytest.mark.parametrize("limit", [2.5, True, -1])
    def test_merge_limit_is_a_non_negative_int(self, limit):
        """2.5 used to return three arrivals."""
        with pytest.raises(ConfigError, match="limit"):
            merge_tenant_arrivals(split_rate(1_000.0, 1), "poisson", 1, limit)

    @pytest.mark.parametrize("capacity", [2.5, True, 0])
    def test_queue_capacity_is_a_positive_int(self, capacity):
        with pytest.raises(ConfigError, match="capacity"):
            RequestQueue(capacity)

    def test_unknown_discipline_fails_at_construction(self):
        """It used to fail only when serving started."""
        with pytest.raises(ConfigError, match="discipline"):
            ServeSpec(discipline="lifo")

    def test_unknown_arrival_kind_fails_at_construction(self):
        with pytest.raises(ConfigError, match="diurnal, onoff, poisson"):
            ServeSpec(arrival="weibull")


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
class TestArrivalProcesses:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="diurnal, onoff, poisson"):
            make_arrival_process("weibull", 100.0)

    def test_poisson_mean_rate(self):
        process = PoissonProcess(10_000.0)
        gaps = take(process.intervals(rng()), 20_000)
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.05)

    def test_arrivals_are_interval_prefix_sums(self):
        process = PoissonProcess(5_000.0)
        gaps = take(process.intervals(rng(3)), 100)
        stamps = take(process.arrivals(rng(3)), 100)
        assert stamps == pytest.approx(np.cumsum(gaps))

    def test_onoff_preserves_average_rate(self):
        process = OnOffProcess(10_000.0, burst=4.0, on_fraction=0.2)
        gaps = take(process.intervals(rng(1)), 60_000)
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.1)

    def test_onoff_is_burstier_than_poisson(self):
        poisson = take(PoissonProcess(10_000.0).intervals(rng(2)), 30_000)
        onoff = take(
            OnOffProcess(10_000.0, burst=4.0, on_fraction=0.2).intervals(rng(2)),
            30_000,
        )
        assert np.std(onoff) > np.std(poisson)

    def test_onoff_validation(self):
        with pytest.raises(ConfigError):
            OnOffProcess(100.0, burst=1.0)
        with pytest.raises(ConfigError):
            OnOffProcess(100.0, burst=6.0, on_fraction=0.2)
        with pytest.raises(ConfigError):
            OnOffProcess(100.0, on_fraction=1.5)

    def test_diurnal_preserves_average_rate(self):
        process = DiurnalProcess(10_000.0, day_us=100_000.0)
        gaps = take(process.intervals(rng(4)), 60_000)
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.1)

    def test_diurnal_rate_follows_profile(self):
        process = DiurnalProcess(
            1_000.0, profile=(0.5, 2.0), day_us=1_000.0
        )
        # Profile mean is 1.25 -> normalised slots are 0.4 and 1.6.
        assert process.rate_at(0.0) == pytest.approx(400.0)
        assert process.rate_at(600.0) == pytest.approx(1600.0)
        assert process.rate_at(1_100.0) == pytest.approx(400.0)

    def test_diurnal_validation(self):
        with pytest.raises(ConfigError):
            DiurnalProcess(100.0, profile=(1.0,))
        with pytest.raises(ConfigError):
            DiurnalProcess(100.0, profile=(1.0, -1.0))


# ----------------------------------------------------------------------
# Tenant merging
# ----------------------------------------------------------------------
class TestMergeTenantArrivals:
    def test_time_ordered_and_complete(self):
        tenants = split_rate(12_000.0, 3)
        merged = merge_tenant_arrivals(tenants, "poisson", 7, 500)
        assert len(merged) == 500
        stamps = [t for t, _ in merged]
        assert stamps == sorted(stamps)

    def test_all_tenants_represented(self):
        tenants = split_rate(12_000.0, 4)
        merged = merge_tenant_arrivals(tenants, "poisson", 7, 2_000)
        indices = {index for _, index in merged}
        assert indices == {0, 1, 2, 3}

    def test_deterministic_in_seed(self):
        tenants = split_rate(8_000.0, 2)
        one = merge_tenant_arrivals(tenants, "onoff", 13, 300)
        two = merge_tenant_arrivals(tenants, "onoff", 13, 300)
        assert one == two
        other = merge_tenant_arrivals(tenants, "onoff", 14, 300)
        assert one != other

    def test_adding_a_tenant_preserves_existing_streams(self):
        # Per-tenant streams come from SeedSequence children, so tenant
        # 0's private timestamps are identical whether it has 1 or 3
        # peers — only the interleaving changes.
        two = merge_tenant_arrivals(split_rate(4_000.0, 2), "poisson", 7, 400)
        tenants3 = split_rate(4_000.0, 2) + [Tenant("extra", 100.0)]
        three = merge_tenant_arrivals(tenants3, "poisson", 7, 400)
        stamps_t0_two = [t for t, i in two if i == 0][:50]
        stamps_t0_three = [t for t, i in three if i == 0][:50]
        assert stamps_t0_two == stamps_t0_three


# ----------------------------------------------------------------------
# Request queue
# ----------------------------------------------------------------------
def request(seq: int, priority: int = 0) -> Request:
    return Request(
        seq=seq,
        arrival_us=float(seq),
        tenant_index=0,
        operation=Operation(OP_GET, b"k"),
        priority=priority,
    )


class TestRequestQueue:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RequestQueue(0)
        with pytest.raises(ConfigError):
            RequestQueue(4, discipline="lifo")

    def test_fifo_order(self):
        queue = RequestQueue(8)
        for seq in range(5):
            queue.offer(request(seq))
        assert [queue.pop().seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_priority_order_with_fifo_ties(self):
        queue = RequestQueue(8, discipline="priority")
        queue.offer(request(0, priority=5))
        queue.offer(request(1, priority=1))
        queue.offer(request(2, priority=5))
        queue.offer(request(3, priority=1))
        assert [queue.pop().seq for _ in range(4)] == [1, 3, 0, 2]

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
        with pytest.raises(ConfigError):
            RequestQueue(2, discipline="priority").pop()

    def test_fifo_compaction_keeps_order(self):
        queue = RequestQueue(10_000)
        for seq in range(6_000):
            queue.offer(request(seq))
        popped = [queue.pop().seq for _ in range(5_000)]
        assert popped == list(range(5_000))
        for seq in range(6_000, 6_100):
            queue.offer(request(seq))
        rest = [queue.pop().seq for _ in range(queue.depth)]
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
        write = Operation(OP_PUT, b"k", b"v")
        read = Operation(OP_GET, b"k")
        with pytest.raises(BackpressureError) as excinfo:
            admission_bound(db, serve, write, tenant="gold")
        assert excinfo.value.tenant == "gold"
        assert isinstance(excinfo.value, AdmissionError)
        assert admission_bound(db, serve, read) is None

    def test_slowdown_halves_write_bound(self):
        db = db_at_throttle("slowdown")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        write = Operation(OP_PUT, b"k", b"v")
        assert admission_bound(db, serve, write) == 4
        assert admission_bound(db, serve, Operation(OP_GET, b"k")) is None

    def test_unthrottled_store_imposes_no_bound(self):
        db = db_at_throttle("none")
        serve = ServeSpec(rate_ops_s=1000.0, queue_depth=8)
        assert admission_bound(db, serve, Operation(OP_PUT, b"k", b"v")) is None

    def test_backpressure_flag_disables_the_gate(self):
        db = db_at_throttle("stop")
        serve = ServeSpec(rate_ops_s=1000.0, backpressure=False)
        write = Operation(OP_PUT, b"k", b"v")
        assert admission_bound(db, serve, write) is None


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
        serve = ServeSpec(arrival="onoff", rate_ops_s=10_000.0, seed=5)
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

    def test_per_tenant_stats_and_metrics(self):
        serve = ServeSpec(arrival="poisson", rate_ops_s=8_000.0,
                          num_tenants=3, slo_us=1_000.0)
        result = serve_workload(SPEC, "udc", serve)
        assert len(result.tenant_stats) == 3
        assert sum(s.completed for s in result.tenant_stats) == result.completed
        snapshot = result.tenant_metrics()
        for stats in result.tenant_stats:
            scoped = snapshot.component(f"tenant.{stats.tenant.name}")
            assert scoped["serve.completed"] == stats.completed

    def test_tenant_slo_override(self):
        tenants = (
            Tenant("gold", 4_000.0, slo_us=50.0),
            Tenant("bulk", 4_000.0),
        )
        serve = ServeSpec(arrival="poisson", rate_ops_s=8_000.0,
                          tenants=tenants, slo_us=100_000.0)
        result = serve_workload(SPEC, "udc", serve)
        gold, bulk = result.tenant_stats
        assert gold.slo_us == 50.0
        assert bulk.slo_us == 100_000.0
        assert gold.slo_violation_rate >= bulk.slo_violation_rate

    def test_priority_discipline_favors_low_priority_value(self):
        tenants = (
            Tenant("gold", 30_000.0, priority=0),
            Tenant("bulk", 30_000.0, priority=9),
        )
        serve = ServeSpec(arrival="poisson", rate_ops_s=60_000.0,
                          tenants=tenants, discipline="priority",
                          queue_depth=128)
        result = serve_workload(SPEC, "udc", serve)
        gold, bulk = result.tenant_stats
        assert gold.completed > 0 and bulk.completed > 0
        assert (
            gold.wait_latencies.mean() < bulk.wait_latencies.mean()
        )

    def test_empty_tenants_tuple_rejected(self):
        with pytest.raises(ConfigError):
            ServeSpec(tenants=()).resolve_tenants()

    @pytest.mark.parametrize(
        "serve",
        [
            # Overload, priorities and a short queue: rejections, reordered
            # completions, tenants of very different sizes.
            ServeSpec(
                arrival="poisson",
                tenants=(
                    Tenant("gold", 30_000.0, priority=0),
                    Tenant("bulk", 30_000.0, priority=9),
                    Tenant("rare", 300.0, priority=5),
                ),
                discipline="priority",
                queue_depth=16,
            ),
        ],
        ids=["open"],
    )
    def test_batched_recorders_equal_a_per_sample_replay(self, serve, monkeypatch):
        """The serve loop buffers samples and records them a batch at a time;
        the same run with every batch fed through per-sample ``record`` must
        leave every recorder, fleet-wide and per tenant, in the same state."""

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
            for stats in result.tenant_stats:
                recorders += [stats.wait_latencies, stats.total_latencies]
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
        for stats in batched.tenant_stats:
            assert len(stats.wait_latencies) == stats.completed
            assert len(stats.total_latencies) == stats.completed
