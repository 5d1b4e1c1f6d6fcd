"""Hypothesis properties of the serving layer's queueing machinery.

Five contracts, over *arbitrary* parameters rather than the seeded
examples of the unit suite:

1. **Seeded determinism** — the arrival stream is a pure function of
   ``(rate, seed)``: same seed ⇒ identical timestamps, different seed ⇒
   a different sequence, and the timestamps only grow.
2. **Interval/arrival consistency** — the n-th arrival timestamp equals
   the running sum of the first n inter-arrival gaps drawn one at a time
   from the same seeded generator, and the consecutive differences are
   those gaps across the 4,096-gap block boundary: the virtual clock
   advances by exactly the gaps, nothing else.
3. **Conservation** — over any tiny serve run (rate, queue depth, seed,
   zero or one background thread) the ledger balances: every arrival is
   admitted or rejected, and every admitted request completes once the
   last arrival has drained the queue.
4. **M/D/1 wait monotonicity** — with deterministic service, raising the
   offered load (holding the arrival sample paths comparable) never
   reduces the mean queue wait.  This is the queueing-theory sanity
   check that the open-loop simulation actually behaves like a queue.
5. **Long-run mean rate** — the empirical mean inter-arrival over a long
   sample matches ``1e6 / rate_ops_s``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lsm.config import LSMConfig
from repro.serve import ServeSpec, poisson_arrivals, serve_workload
from repro.workload import rwb, wo

LOOSE = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# 1. Seeded determinism
# ----------------------------------------------------------------------
class TestSeededDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=200),
    )
    @LOOSE
    def test_same_seed_same_sequence(self, seed, count):
        one = poisson_arrivals(10_000.0, seed, count)
        two = poisson_arrivals(10_000.0, seed, count)
        assert one == two

    @given(seed=st.integers(min_value=0, max_value=2**31 - 2))
    @LOOSE
    def test_different_seed_different_sequence(self, seed):
        one = poisson_arrivals(10_000.0, seed, 100)
        two = poisson_arrivals(10_000.0, seed + 1, 100)
        assert one != two

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=2, max_value=300),
    )
    @LOOSE
    def test_arrivals_are_time_ordered(self, seed, count):
        stamps = poisson_arrivals(8_000.0, seed, count)
        assert stamps == sorted(stamps)
        assert all(stamp > 0 for stamp in stamps)


# ----------------------------------------------------------------------
# 2. Arrivals are the running sum of the intervals
# ----------------------------------------------------------------------
def scalar_gaps(rate: float, seed: int):
    """The gaps ``poisson_arrivals`` accumulates, drawn one at a time from
    the first child of ``SeedSequence(seed)``."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(child))
    scale_us = 1e6 / rate
    while True:
        yield float(rng.exponential(scale_us))


class TestIntervalArrivalConsistency:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=10.0, max_value=1e6),
        count=st.integers(min_value=1, max_value=300),
    )
    @LOOSE
    def test_nth_arrival_is_prefix_sum(self, seed, rate, count):
        running = 0.0
        for stamp, gap in zip(poisson_arrivals(rate, seed, count),
                              scalar_gaps(rate, seed)):
            assert gap >= 0.0
            running += gap
            assert stamp == running

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=10.0, max_value=1e6),
    )
    @settings(max_examples=10, deadline=None)
    def test_poisson_block_draws_are_the_scalar_stream(self, seed, rate):
        """``poisson_arrivals`` draws 4,096 gaps per generator call; its
        consecutive differences are the gaps scalar draws from the same
        PCG64 stream give, across block boundaries (to the rounding of
        the timestamps they are taken from)."""
        count = 2 * 4096 + 50
        stamps = poisson_arrivals(rate, seed, count)
        gaps = list(itertools.islice(scalar_gaps(rate, seed), count))
        assert np.diff(stamps, prepend=0.0) == pytest.approx(
            gaps, rel=0.0, abs=1e-12 * stamps[-1]
        )


# ----------------------------------------------------------------------
# 3. Conservation over whole serve runs
# ----------------------------------------------------------------------
def assert_ledger_balances(result, arrivals: int) -> None:
    assert result.arrived == arrivals
    assert result.arrived == (
        result.admitted + result.rejected_full + result.rejected_backpressure
    )
    assert result.admitted == result.completed == len(result.total_latencies)


#: Writes of 300-byte values into a store whose Level 0 stops at 5 files:
#: with one background thread, a run reaches both throttle states.
BURST = wo(num_operations=1_500, key_space=300, preload_keys=300,
           value_bytes=300, key_bytes=12, seed=5)


def burst_config(bg_threads: int) -> LSMConfig:
    return LSMConfig(memtable_bytes=2048, sstable_target_bytes=2048,
                     block_bytes=512, fan_out=4, level1_capacity_bytes=4096,
                     max_levels=6, bg_threads=bg_threads,
                     l0_compaction_trigger=2, l0_slowdown_trigger=3,
                     l0_stop_trigger=5)


class TestConservation:
    @given(
        rate=st.floats(min_value=2_000.0, max_value=80_000.0),
        queue_depth=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        bg_threads=st.sampled_from((0, 1)),
    )
    @LOOSE
    def test_every_tiny_serve_run_balances(self, rate, queue_depth, seed,
                                           bg_threads):
        """Every arrival is admitted or rejected, and every admitted request
        completes."""
        spec = rwb(num_operations=150, key_space=100, preload_keys=100,
                   value_bytes=300, key_bytes=12, seed=seed % 1000)
        serve = ServeSpec(rate_ops_s=rate, queue_depth=queue_depth, seed=seed)
        result = serve_workload(spec, "ldc", serve,
                                config=burst_config(bg_threads))
        assert_ledger_balances(result, spec.num_operations)

    def test_a_burst_rejecting_both_ways_balances(self):
        """The property's directed case: a run that rejects at a full queue
        and at the L0 stop trigger, so the check is not vacuous."""
        serve = ServeSpec(rate_ops_s=20_000.0, queue_depth=3, seed=5)
        result = serve_workload(BURST, "ldc", serve, config=burst_config(1))
        assert result.rejected_full > 0
        assert result.rejected_backpressure > 0
        assert_ledger_balances(result, BURST.num_operations)

    def test_ledger_balances_past_ten_thousand_pops(self):
        """The long run: over 11k requests popped from the loop's deque, with
        rejections at a full queue between them."""
        spec = rwb(num_operations=12_000, key_space=300, preload_keys=300,
                   value_bytes=300, key_bytes=12, seed=5)
        serve = ServeSpec(rate_ops_s=20_000.0, queue_depth=3, seed=5)
        result = serve_workload(spec, "ldc", serve, config=burst_config(1))
        assert result.completed > 10_000
        assert result.rejected_full > 0
        assert_ledger_balances(result, spec.num_operations)


# ----------------------------------------------------------------------
# 4. M/D/1 mean-wait monotonicity in offered load
# ----------------------------------------------------------------------
def mean_wait_md1(service_us: float, rate_ops_s: float, seed: int,
                  count: int = 400) -> float:
    """Mean queue wait of an M/D/1 queue simulated the serve-loop way.

    One deterministic server, unbounded FIFO: service begins at
    ``max(arrival, previous completion)`` — the same recurrence the
    serving loop induces on the DB clock.  Scaling the rate rescales the
    *same* exponential sample path, so waits are comparable across loads.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1e6 / rate_ops_s, size=count)
    arrivals = np.cumsum(gaps)
    free_at = 0.0
    wait_total = 0.0
    for arrival in arrivals:
        begin = max(arrival, free_at)
        wait_total += begin - arrival
        free_at = begin + service_us
    return wait_total / count


# ----------------------------------------------------------------------
# 5. Long-run mean inter-arrival matches the configured rate
# ----------------------------------------------------------------------

class TestLongRunMeanRate:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(
        max_examples=9,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mean_interarrival_matches_configured_rate(self, seed):
        rate = 10_000.0
        gaps = np.diff(poisson_arrivals(rate, seed, 60_000), prepend=0.0)
        assert float(np.mean(gaps)) == pytest.approx(1e6 / rate, rel=0.08)


class TestMD1Monotonicity:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        service_us=st.floats(min_value=5.0, max_value=200.0),
        low=st.floats(min_value=0.1, max_value=0.85),
        step=st.floats(min_value=1.05, max_value=3.0),
    )
    @LOOSE
    def test_mean_wait_is_monotone_in_offered_load(
        self, seed, service_us, low, step
    ):
        capacity = 1e6 / service_us  # ops/s the deterministic server can do
        lows = mean_wait_md1(service_us, capacity * low, seed)
        highs = mean_wait_md1(service_us, capacity * low * step, seed)
        assert highs >= lows

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @LOOSE
    def test_heavy_load_waits_dominate_light_load(self, seed):
        service_us = 50.0
        capacity = 1e6 / service_us
        light = mean_wait_md1(service_us, 0.2 * capacity, seed)
        heavy = mean_wait_md1(service_us, 1.5 * capacity, seed)
        assert heavy > light
        assert heavy > service_us  # saturated: waits exceed a service time
