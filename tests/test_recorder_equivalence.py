"""Pair-run: the lazily folded recorders == the per-sample oracle.

``LatencyRecorder`` stores a chunk with one ``list.extend`` and folds the
float sum, min / max and the histogram buckets from the not-yet-folded tail
in one vectorised pass — at a watermark or on the first query.
``tests/_recorder_oracle.py`` holds the loops that did the same work per
sample.  Hypothesis drives both through the same programme — arbitrary
chunkings, every sampling mode, interleaved ``merge_from`` and mid-stream
queries, the fold watermark anywhere from "every call" to "never" — and
every observable must agree with ``==``: no tolerance, because the float
sum accumulates in arrival order on both sides and a bucket index is an
integer.

The value strategy aims at where a vectorised ``log`` could disagree with
``math.log``: exact bucket edges ``min_value_us * growth**k``, their float
neighbours on both sides, ``0.0`` and ``min_value_us`` itself.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.harness import latency
from repro.harness.latency import LatencyRecorder, LatencyTimeline
from repro.obs.histogram import LatencyHistogram

from ._recorder_oracle import OracleHistogram, OracleRecorder, OracleTimeline

MAX_EXAMPLES = 120

GROWTH, MIN_US = 1.05, 0.5
_EDGES = [MIN_US * GROWTH ** k for k in range(0, 420)]
EDGE_VALUES = [0.0, MIN_US] + [
    float(value)
    for edge in _EDGES
    for value in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf))
]
PERCENTILES = (0.01, 1.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0)

values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    # A simulation's latencies repeat a few constants (what the oracle's
    # memo was built for).
    st.sampled_from([10.712, 55.012, 1.0]),
)
chunks = st.lists(values, max_size=40)
sampling = st.tuples(
    st.integers(min_value=1, max_value=7),
    st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("many"), chunks),
        st.tuples(st.just("one"), values),
        st.tuples(st.just("query"), st.none()),
        st.tuples(st.just("merge"), st.tuples(sampling, chunks)),
    ),
    max_size=30,
)
#: Fold on every call, every few samples, or only when queried.
watermarks = st.sampled_from([1, 5, 64, 1 << 16])


def assert_same(new: LatencyRecorder, old: OracleRecorder) -> None:
    assert list(new.values) == list(old.values)
    assert len(new) == len(old)
    assert new.sample_count == old.sample_count
    assert new.is_sampled == old.is_sampled
    assert new.histogram.to_dict() == old.histogram.to_dict()
    assert new.histogram.count == len(new)
    if len(old):
        assert new.mean() == old.mean()
        assert new.minimum() == old.minimum()
        assert new.maximum() == old.maximum()
        assert new.percentiles(PERCENTILES) == old.percentiles(PERCENTILES)
        assert new.streaming_percentiles(PERCENTILES) == old.streaming_percentiles(
            PERCENTILES
        )


def apply(recorder, kind, arg, recorder_type) -> None:
    if kind == "many":
        recorder.record_many(arg)
    elif kind == "one":
        recorder.record(arg)
    elif kind == "merge":
        (stride, cap), chunk = arg
        other = recorder_type(stride, cap)
        other.record_many(chunk[: len(chunk) // 2])
        other.record_many(chunk[len(chunk) // 2:])
        recorder.merge_from(other)


class TestRecorderPairRun:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(sampling=sampling, watermark=watermarks, programme=steps)
    def test_every_observable_equal(self, sampling, watermark, programme):
        with mock.patch.object(latency, "FOLD_WATERMARK", watermark):
            new = LatencyRecorder(*sampling)
            old = OracleRecorder(*sampling)
            for kind, arg in programme:
                apply(new, kind, arg, LatencyRecorder)
                apply(old, kind, arg, OracleRecorder)
                if kind == "query":
                    assert_same(new, old)
            assert_same(new, old)

    def test_past_the_real_watermark(self):
        """No patching: 3 x 40k samples cross the 64k watermark mid-stream."""
        rng = np.random.default_rng(23)
        new, old = LatencyRecorder(), OracleRecorder()
        sampled_new = LatencyRecorder(sample_stride=3, max_samples=5_000)
        sampled_old = OracleRecorder(sample_stride=3, max_samples=5_000)
        for _ in range(3):
            chunk = (rng.exponential(40.0, size=40_000) + 10.712).tolist()
            chunk[::7] = [10.712] * len(chunk[::7])
            for recorder in (new, old, sampled_new, sampled_old):
                recorder.record_many(chunk)
        assert_same(new, old)
        assert_same(sampled_new, sampled_old)


class TestHistogramPairRun:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        geometry=st.sampled_from([(1.05, 0.5), (1.01, 1.0), (2.0, 0.001)]),
        batches=st.lists(chunks, max_size=8),
        scale=st.sampled_from([1.0, 1e-3, 1e3]),
    )
    def test_buckets_equal(self, geometry, batches, scale):
        new, old = LatencyHistogram(*geometry), OracleHistogram(*geometry)
        for batch in batches:
            batch = [value * scale for value in batch]
            new.record_many(batch)
            old.record_many(batch)
            for value in batch[:3]:
                new.record(value)
                old.record(value)
        assert new.to_dict() == old.to_dict()

    def test_every_edge_and_neighbour_lands_in_the_scalar_bucket(self):
        histogram = LatencyHistogram(GROWTH, MIN_US)
        histogram.record_many(EDGE_VALUES)
        expected: dict = {}
        for value in EDGE_VALUES:
            index = histogram.bucket_index(value)
            expected[index] = expected.get(index, 0) + 1
        assert histogram._buckets == expected


events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),  # gap
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),  # latency
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
    ),
    max_size=80,
)


class TestTimelinePairRun:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        bucket_us=st.sampled_from([0.1, 1.0, 7.5, 1_000_000.0]),
        stream=events,
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
        singles=st.booleans(),
    )
    def test_points_equal(self, bucket_us, stream, cuts, singles):
        now = 0.0
        stamped = []
        for gap, latency_us, stall in stream:
            now += gap
            stamped.append((now, latency_us, stall))
        new, old = LatencyTimeline(bucket_us), OracleTimeline(bucket_us)
        bounds = sorted({0, len(stamped), *(c for c in cuts if c < len(stamped))})
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = stamped[lo:hi]
            if singles and len(chunk) == 1:
                new.record(chunk[0][0], chunk[0][1], stall_us=chunk[0][2])
            else:
                new.record_many(chunk)
        for timestamp, latency_us, stall in stamped:
            old.record(timestamp, latency_us, stall_us=stall)
        assert new.points() == old.points()
        assert new._stalls == old._stalls
