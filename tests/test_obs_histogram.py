"""Tests for the streaming log-bucketed latency histogram."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import LatencyHistogram
from repro.errors import ReproError


def exact_percentile(values, pct: float) -> float:
    data = sorted(values)
    index = min(len(data) - 1, max(0, int(np.ceil(pct / 100.0 * len(data))) - 1))
    return data[index]


class TestBucketBoundaries:
    def test_zero_and_min_share_bucket_zero(self) -> None:
        hist = LatencyHistogram(min_value_us=0.5)
        assert hist.bucket_index(0.0) == 0
        assert hist.bucket_index(0.5) == 0

    def test_boundaries_are_inclusive_upper(self) -> None:
        hist = LatencyHistogram(growth=2.0, min_value_us=1.0)
        # bucket i covers (g^(i-1), g^i] above the min
        assert hist.bucket_index(1.0) == 0
        assert hist.bucket_index(2.0) == 1
        assert hist.bucket_index(2.0000001) == 2
        assert hist.bucket_index(4.0) == 2
        assert hist.bucket_index(8.0) == 3

    def test_edges_and_neighbours_bucket_as_scalar(self) -> None:
        """``record_many``'s vectorised ``log`` agrees with ``bucket_index``
        on every exact edge ``0.5 * 1.05**k`` and its float neighbours."""
        edges = [0.5 * 1.05**k for k in range(420)]
        values = [0.0, 0.5] + [
            float(value)
            for edge in edges
            for value in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
        ]
        hist = LatencyHistogram(1.05, 0.5)
        hist.record_many(values)
        expected: dict = {}
        for value in values:
            index = hist.bucket_index(value)
            expected[index] = expected.get(index, 0) + 1
        assert hist._buckets == expected

    def test_monotone_in_value(self) -> None:
        hist = LatencyHistogram()
        indices = [hist.bucket_index(v) for v in (0.1, 1, 5, 50, 500, 5e6)]
        assert indices == sorted(indices)

    def test_invalid_parameters(self) -> None:
        with pytest.raises(ReproError):
            LatencyHistogram(growth=1.0)
        with pytest.raises(ReproError):
            LatencyHistogram(min_value_us=0.0)

    def test_negative_value_rejected(self) -> None:
        hist = LatencyHistogram()
        with pytest.raises(ReproError):
            hist.record(-1.0)

    def test_negative_mid_batch_leaves_the_histogram_untouched(self) -> None:
        """Before PR 23 ``record_many([1.0, -1.0])`` raised after bumping
        1.0's bucket but not ``count``."""
        hist = LatencyHistogram()
        hist.record_many([4.0, 0.1, 250.0])
        before = hist.to_dict()
        with pytest.raises(ReproError, match="negative latency"):
            hist.record_many([1.0, -1.0])
        with pytest.raises(ReproError, match="negative latency"):
            hist.record(-1.0)
        assert hist.to_dict() == before
        assert hist.count == 3 == sum(hist._buckets.values())


class TestPercentileAccuracy:
    @pytest.mark.parametrize("distribution", ["uniform", "lognormal", "bimodal"])
    def test_within_one_bucket_of_exact_on_10k_samples(
        self, distribution: str
    ) -> None:
        """Acceptance criterion: streaming percentiles match an exact sort
        within one bucket width on >= 10k samples."""
        rng = random.Random(1234)
        if distribution == "uniform":
            values = [rng.uniform(1.0, 5000.0) for _ in range(12_000)]
        elif distribution == "lognormal":
            values = [rng.lognormvariate(3.0, 1.2) for _ in range(12_000)]
        else:
            values = [
                rng.uniform(5, 50) if rng.random() < 0.95 else rng.uniform(5e3, 5e4)
                for _ in range(12_000)
            ]
        hist = LatencyHistogram()
        hist.record_many(values)
        for pct in (50.0, 90.0, 99.0, 99.9):
            exact = exact_percentile(values, pct)
            estimate = hist.percentile(pct)
            # one bucket width at the exact value: growth - 1 relative error
            tolerance = exact * (hist.growth - 1.0) + 1e-9
            assert abs(estimate - exact) <= tolerance, (
                f"{distribution} P{pct}: estimate {estimate} vs exact {exact}"
            )

    def test_max_is_exact(self) -> None:
        hist = LatencyHistogram()
        hist.record_many([3.0, 17.5, 250.0])
        assert hist.summary()["max"] == pytest.approx(250.0)
        assert hist.percentile(100.0) == pytest.approx(250.0)

    def test_single_value(self) -> None:
        hist = LatencyHistogram()
        hist.record(42.0)
        assert hist.percentile(50.0) == pytest.approx(42.0, rel=0.06)

    def test_empty_raises(self) -> None:
        hist = LatencyHistogram()
        with pytest.raises(ReproError):
            hist.percentile(50.0)


class TestSummaryAndMerge:
    def test_summary_keys(self) -> None:
        hist = LatencyHistogram()
        hist.record_many(range(1, 1001))
        summary = hist.summary()
        assert set(summary) == {"p50", "p90", "p99", "p99.9", "max"}
        assert summary["p50"] <= summary["p90"] <= summary["p99"] <= summary["max"]

    def test_merge_equals_combined_recording(self) -> None:
        left, right, combined = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        lows = [float(v) for v in range(1, 501)]
        highs = [float(v) for v in range(500, 5000, 7)]
        left.record_many(lows)
        right.record_many(highs)
        combined.record_many(lows + highs)
        left.merge(right)
        assert left.count == combined.count
        assert left.percentiles((50.0, 99.0)) == combined.percentiles((50.0, 99.0))
        assert left.summary()["max"] == combined.summary()["max"]

    def test_merge_rejects_mismatched_scale(self) -> None:
        with pytest.raises(ReproError):
            LatencyHistogram(growth=1.05).merge(LatencyHistogram(growth=1.1))

    def test_to_dict_round_trips_counts(self) -> None:
        hist = LatencyHistogram()
        hist.record_many([1.0, 2.0, 300.0])
        payload = hist.to_dict()
        assert payload["count"] == 3
        assert sum(payload["buckets"].values()) == 3


class TestRecorderIntegration:
    def test_latency_recorder_feeds_histogram(self) -> None:
        from repro.harness.latency import LatencyRecorder

        recorder = LatencyRecorder()
        rng = random.Random(7)
        values = [rng.lognormvariate(3.0, 1.0) for _ in range(10_000)]
        for value in values:
            recorder.record(value)
        assert recorder.histogram.count == len(values)
        streaming = recorder.histogram.percentiles((99.0,))[99.0]
        exact = recorder.percentile(99.0)
        assert streaming == pytest.approx(exact, rel=recorder.histogram.growth - 1.0)
