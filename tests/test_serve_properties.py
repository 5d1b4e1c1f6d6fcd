"""Hypothesis properties of the serving layer's queueing machinery.

Five contracts, over *arbitrary* parameters rather than the seeded
examples of the unit suite:

1. **Seeded determinism** — the arrival stream is a pure function of
   ``(rate, seed)``: same seed ⇒ identical timestamps, different seed ⇒
   a different sequence, and the timestamps only grow.
2. **Interval/arrival consistency** — the n-th arrival timestamp equals
   the running sum of the first n inter-arrival gaps drawn from an
   identically-seeded generator: the virtual clock advances by exactly
   the gaps, nothing else.
3. **Conservation** — under any interleaving of offers, pops and
   completions, the queue ledger balances: every arrival is admitted or
   rejected, every admitted request is completed or still queued.
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

from repro.errors import ConfigError, QueueFullError
from repro.serve import RequestQueue, poisson_arrivals
from repro.serve.arrivals import PoissonProcess
from repro.serve.queue import Request
from repro.workload.ycsb import OP_GET, Operation

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
class TestIntervalArrivalConsistency:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=10.0, max_value=1e6),
        count=st.integers(min_value=1, max_value=300),
    )
    @LOOSE
    def test_nth_arrival_is_prefix_sum(self, seed, rate, count):
        process = PoissonProcess(rate)
        gap_rng = np.random.default_rng(seed)
        stamp_rng = np.random.default_rng(seed)
        gaps = process.intervals(gap_rng)
        stamps = process.arrivals(stamp_rng)
        running = 0.0
        for _ in range(count):
            gap = next(gaps)
            assert gap >= 0.0
            running += gap
            assert next(stamps) == running

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=10.0, max_value=1e6),
    )
    @settings(max_examples=10, deadline=None)
    def test_poisson_block_draws_are_the_scalar_stream(self, seed, rate):
        """``PoissonProcess`` draws 4,096 gaps per generator call; the gaps
        are the ones scalar draws from the same PCG64 stream give, across
        block boundaries."""
        process = PoissonProcess(rate)
        blocked = process.intervals(
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        )
        scalar_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed))
        )
        scale_us = process.mean_interval_us
        for _ in range(2 * 4096 + 50):
            assert next(blocked) == float(scalar_rng.exponential(scale_us))


# ----------------------------------------------------------------------
# 3. Conservation under arbitrary interleavings
# ----------------------------------------------------------------------
def _request(index: int) -> Request:
    """The ``index``-th arrival: FIFO order is ``arrival_us`` order."""
    return Request(arrival_us=float(index), operation=Operation(OP_GET, b"k"))


class TestConservation:
    @given(
        events=st.lists(
            st.sampled_from(("offer", "serve", "external")),
            min_size=1,
            max_size=300,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @LOOSE
    def test_ledger_balances_at_every_step(self, events, capacity):
        queue = RequestQueue(capacity)
        in_flight = 0
        seq = 0
        for action in events:
            if action == "offer":
                try:
                    queue.offer(_request(seq))
                except Exception:
                    pass
                seq += 1
            elif action == "external":
                queue.reject_external()
            elif queue.depth:
                queue.pop()
                in_flight += 1
            if in_flight:  # a popped request completes before the next event
                queue.complete()
                in_flight -= 1
            queue.stats.check_conservation(queue.depth)
        stats = queue.stats
        assert stats.arrived == stats.admitted + stats.rejected
        assert stats.admitted == stats.completed + queue.depth

    def test_ledger_balances_past_ten_thousand_pops(self):
        """The long-run case the hand-rolled list-with-head FIFO carried a
        compaction branch for (drained prefix > 4096): on the deque-backed
        queue the rule holds at every step of a 12k-pop saw-tooth, order is
        arrival order throughout, and a rejection reports the depth it saw."""
        queue = RequestQueue(64)
        rng = np.random.default_rng(5)
        seq = 0
        popped = []
        while len(popped) < 12_000:
            for _ in range(int(rng.integers(1, 90))):
                try:
                    queue.offer(_request(seq))
                except QueueFullError as error:
                    assert error.depth == queue.depth == 64
                    assert str(error) == (
                        "request queue full (depth 64 >= bound 64)"
                    )
                seq += 1
                queue.stats.check_conservation(queue.depth)
            for _ in range(int(rng.integers(1, 90))):
                if not queue.depth:
                    break
                popped.append(queue.pop().arrival_us)
                queue.complete()
                queue.stats.check_conservation(len(queue))
        assert popped == sorted(popped)
        assert queue.stats.rejected > 0
        assert queue.stats.admitted == len(popped) + queue.depth
        with pytest.raises(ConfigError, match="pop from an empty request queue"):
            RequestQueue(4).pop()


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
        rng = np.random.default_rng(seed)
        gaps = np.fromiter(
            itertools.islice(PoissonProcess(rate).intervals(rng), 60_000),
            dtype=float,
        )
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
