"""Unit tests for latency recording and the fluctuation timeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.latency import (
    PAPER_PERCENTILES,
    LatencyRecorder,
    LatencyTimeline,
)


class TestLatencyRecorder:
    def test_empty_recorder_raises(self):
        recorder = LatencyRecorder()
        with pytest.raises(ReproError):
            recorder.percentile(99.0)
        with pytest.raises(ReproError):
            recorder.mean()

    def test_negative_latency_rejected(self):
        with pytest.raises(ReproError):
            LatencyRecorder().record(-1.0)

    @pytest.mark.parametrize("sampling", [(1, None), (3, None), (2, 4)])
    def test_negative_mid_chunk_leaves_the_recorder_untouched(self, sampling):
        """Validation precedes mutation: before PR 23 ``[1.0, -1.0]`` raised
        after 1.0 had been stored, with count and sum not updated — a
        recorder that disagreed with itself."""
        recorder = LatencyRecorder(*sampling)
        recorder.record_many([4.0, 2.0, 8.0])

        def state():
            return (list(recorder.values), len(recorder), recorder.is_sampled,
                    recorder.histogram.count, recorder.histogram.to_dict())

        before = state()
        with pytest.raises(ReproError, match="negative latency"):
            recorder.record_many([1.0, -1.0])
        assert state() == before
        with pytest.raises(ReproError, match="negative latency"):
            recorder.record(-0.5)
        assert state() == before
        recorder.record_many([1.0])
        assert len(recorder) == recorder.histogram.count == 4

    def test_single_value(self):
        recorder = LatencyRecorder()
        recorder.record(5.0)
        assert recorder.percentile(50) == 5.0
        assert recorder.percentile(99.99) == 5.0
        assert recorder.mean() == 5.0

    def test_percentiles_of_known_distribution(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):  # 1..100
            recorder.record(float(value))
        assert recorder.percentile(50) == 50.0
        assert recorder.percentile(90) == 90.0
        assert recorder.percentile(99) == 99.0
        assert recorder.percentile(100) == 100.0

    def test_paper_percentiles_constant(self):
        assert PAPER_PERCENTILES == (90.0, 99.0, 99.9, 99.99)

    def test_percentiles_dict(self):
        recorder = LatencyRecorder()
        for value in range(1000):
            recorder.record(float(value))
        result = recorder.percentiles()
        assert set(result) == set(PAPER_PERCENTILES)
        assert result[99.0] <= result[99.9] <= result[99.99]

    def test_min_max(self):
        recorder = LatencyRecorder()
        for value in (3.0, 1.0, 2.0):
            recorder.record(value)
        assert recorder.minimum() == 1.0
        assert recorder.maximum() == 3.0

    def test_bad_percentile_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ReproError):
            recorder.percentile(0.0)
        with pytest.raises(ReproError):
            recorder.percentile(101.0)

    def test_recording_after_query_works(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        recorder.percentile(50)
        recorder.record(100.0)
        assert recorder.maximum() == 100.0

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_percentile_bounds_property(self, values):
        recorder = LatencyRecorder()
        for value in values:
            recorder.record(value)
        for pct in (50, 90, 99, 99.9):
            result = recorder.percentile(pct)
            assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_percentile_monotone_property(self, values):
        recorder = LatencyRecorder()
        for value in values:
            recorder.record(value)
        results = [recorder.percentile(p) for p in (10, 50, 90, 99, 99.99)]
        assert results == sorted(results)


class TestSampledRecording:
    """Strided/capped sampling: streamed aggregates stay exact, and
    percentiles stay within one histogram log-bucket of the exact path."""

    def _latencies(self, count=20_000):
        # Deterministic long-tailed distribution (log-normal-ish) so the
        # high percentiles actually stress the histogram's log buckets.
        import random

        rng = random.Random(1234)
        return [rng.lognormvariate(3.0, 1.0) for _ in range(count)]

    def test_invalid_sampling_params_rejected(self):
        with pytest.raises(ReproError):
            LatencyRecorder(sample_stride=0)
        with pytest.raises(ReproError):
            LatencyRecorder(max_samples=0)

    def test_default_mode_stores_everything(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0):
            recorder.record(value)
        assert not recorder.is_sampled
        assert recorder.sample_count == len(recorder) == 3

    def test_strided_recorder_bounds_memory(self):
        recorder = LatencyRecorder(sample_stride=100, max_samples=50)
        for value in self._latencies(10_000):
            recorder.record(value)
        assert recorder.is_sampled
        assert len(recorder) == 10_000
        assert recorder.sample_count == 50

    def test_streamed_aggregates_exact_under_sampling(self):
        values = self._latencies(5_000)
        exact = LatencyRecorder()
        sampled = LatencyRecorder(sample_stride=97, max_samples=10)
        for value in values:
            exact.record(value)
            sampled.record(value)
        assert sampled.mean() == pytest.approx(sum(values) / len(values))
        assert sampled.minimum() == exact.minimum() == min(values)
        assert sampled.maximum() == exact.maximum() == max(values)
        assert len(sampled) == len(exact) == len(values)

    def test_sampled_percentiles_within_bucket_error(self):
        """Histogram-answered percentiles sit within ``growth - 1`` (5%)
        relative error of the exact sorted-sample percentiles."""
        values = self._latencies()
        exact = LatencyRecorder()
        sampled = LatencyRecorder(sample_stride=100)
        exact.record_many(values)
        sampled.record_many(values)
        tolerance = sampled.histogram.growth - 1.0
        for pct in (50.0, 90.0, 99.0, 99.9):
            reference = exact.percentile(pct)
            estimate = sampled.percentile(pct)
            assert abs(estimate - reference) <= tolerance * reference + 1e-9, (
                pct,
                reference,
                estimate,
            )

    def test_record_many_matches_per_call_under_sampling(self):
        values = self._latencies(3_000)
        chunked = LatencyRecorder(sample_stride=7, max_samples=200)
        per_call = LatencyRecorder(sample_stride=7, max_samples=200)
        chunked.record_many(values)
        for value in values:
            per_call.record(value)
        assert list(chunked.values) == list(per_call.values)
        assert chunked.histogram.to_dict() == per_call.histogram.to_dict()
        assert len(chunked) == len(per_call)
        assert chunked.is_sampled == per_call.is_sampled

    def test_merge_propagates_sampling_flag(self):
        lossy = LatencyRecorder(sample_stride=2)
        lossy.record_many([1.0, 2.0, 3.0])
        target = LatencyRecorder()
        target.record(5.0)
        target.merge_from(lossy)
        assert target.is_sampled
        assert len(target) == 4
        assert target.maximum() == 5.0


class TestLatencyTimeline:
    def test_bucketing(self):
        timeline = LatencyTimeline(bucket_us=100.0)
        timeline.record(10.0, 5.0)
        timeline.record(50.0, 15.0)
        timeline.record(150.0, 100.0)
        points = timeline.points()
        assert len(points) == 2
        assert points[0].count == 2
        assert points[0].mean_latency_us == pytest.approx(10.0)
        assert points[0].max_latency_us == 15.0
        assert points[1].mean_latency_us == pytest.approx(100.0)

    def test_fluctuation_ratio(self):
        """The Fig. 1 statistic: max bucket mean over min bucket mean."""
        timeline = LatencyTimeline(bucket_us=100.0)
        timeline.record(10.0, 2.0)
        timeline.record(150.0, 98.0)  # a compaction-stalled bucket
        assert timeline.fluctuation_ratio() == pytest.approx(49.0)

    def test_empty_timeline_raises(self):
        with pytest.raises(ReproError):
            LatencyTimeline().fluctuation_ratio()

    def test_bad_bucket_width(self):
        with pytest.raises(ReproError):
            LatencyTimeline(bucket_us=0.0)

    def test_points_sorted_by_time(self):
        timeline = LatencyTimeline(bucket_us=10.0)
        for timestamp in (95.0, 5.0, 55.0):
            timeline.record(timestamp, 1.0)
        starts = [point.start_us for point in timeline.points()]
        assert starts == sorted(starts)


class TestSampledShardMerge:
    """Sampling composed with shard aggregation.

    Each shard records with ``sample_stride``/``max_samples`` against its
    own virtual clock; the aggregate view merges the recorders
    (``merge_from``).  The merged sampled percentiles must stay within one
    histogram log-bucket of the exact whole-population percentiles.
    """

    NUM_SHARDS = 4

    def _shard_streams(self, per_shard=6_000):
        import random

        streams = []
        for shard in range(self.NUM_SHARDS):
            rng = random.Random(97 + shard)
            # Distinct per-shard scale so merging actually mixes shapes.
            sigma = 0.8 + 0.15 * shard
            streams.append(
                [rng.lognormvariate(3.0 + 0.2 * shard, sigma) for _ in range(per_shard)]
            )
        return streams

    def test_merged_sampled_percentiles_within_one_bucket(self):
        streams = self._shard_streams()
        merged = LatencyRecorder(sample_stride=50, max_samples=500)
        exact_population = []
        for stream in streams:
            shard = LatencyRecorder(sample_stride=50, max_samples=500)
            # Chunked recording, like the runner's chunk loop.
            for start in range(0, len(stream), 1024):
                shard.record_many(stream[start : start + 1024])
            merged.merge_from(shard)
            exact_population.extend(stream)
        exact = LatencyRecorder()
        exact.record_many(exact_population)
        assert merged.is_sampled
        assert len(merged) == len(exact_population)
        histogram = merged.histogram
        for pct in (50.0, 90.0, 99.0, 99.9):
            reference = exact.percentile(pct)
            estimate = merged.percentile(pct)
            # Within one log bucket: the bucket holding the estimate is
            # at most one index away from the bucket holding the truth.
            delta = abs(
                histogram.bucket_index(estimate) - histogram.bucket_index(reference)
            )
            assert delta <= 1, (pct, reference, estimate)
            tolerance = histogram.growth - 1.0
            assert abs(estimate - reference) <= tolerance * reference + 1e-9

    def test_merged_streamed_aggregates_stay_exact(self):
        streams = self._shard_streams(per_shard=2_000)
        merged = LatencyRecorder(sample_stride=13, max_samples=100)
        population = []
        for stream in streams:
            shard = LatencyRecorder(sample_stride=13, max_samples=100)
            shard.record_many(stream)
            merged.merge_from(shard)
            population.extend(stream)
        # Count/min/max are streamed, never sampled: exact after merging.
        assert len(merged) == len(population)
        assert merged.maximum() == max(population)
        assert merged.minimum() == min(population)
        assert merged.sample_count <= self.NUM_SHARDS * 100
