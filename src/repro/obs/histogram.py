"""Streaming latency histograms: percentiles without storing every sample.

The harness's original percentile path kept every latency in a Python list
and sorted it on demand — O(n) memory and O(n log n) per query, which is
fine for 10^5-operation reproductions but not for the production-scale
runs the roadmap targets.  :class:`LatencyHistogram` is the streaming
replacement: log-spaced buckets whose width grows geometrically, so a
fixed few-hundred-entry table covers nanoseconds to hours with bounded
relative error, and p50/p90/p99/p99.9/max fall out of one cumulative walk.

The guarantee is the classic HdrHistogram-style one: a reported percentile
lies within one bucket of the exact sample percentile, i.e. within a
relative error of ``growth - 1`` (5% at the default growth of 1.05).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..errors import ReproError

#: The percentile set the observability layer reports by default.
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)


class LatencyHistogram:
    """A log-bucketed streaming histogram of non-negative values.

    Parameters
    ----------
    growth:
        Geometric bucket-width ratio; the relative error bound of every
        reported percentile is ``growth - 1``.
    min_value_us:
        Values at or below this fall into the first bucket; it anchors the
        log scale (sub-``min_value_us`` resolution is not preserved).
    """

    __slots__ = ("growth", "min_value_us", "_log_growth", "_buckets",
                 "count", "total", "_min", "_max")

    def __init__(self, growth: float = 1.05, min_value_us: float = 0.5) -> None:
        if growth <= 1.0:
            raise ReproError("histogram growth factor must exceed 1")
        if min_value_us <= 0:
            raise ReproError("histogram min_value_us must be positive")
        self.growth = growth
        self.min_value_us = min_value_us
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """Index of the bucket holding ``value``.

        Bucket 0 is ``[0, min_value_us]``; bucket ``i >= 1`` is
        ``(min_value_us * growth**(i-1), min_value_us * growth**i]``.
        """
        if value < 0:
            raise ReproError(f"negative latency {value!r}")
        if value <= self.min_value_us:
            return 0
        ratio = math.log(value / self.min_value_us) / self._log_growth
        # Guard against float error putting an exact boundary one bucket up.
        return max(1, int(math.ceil(ratio - 1e-9)))

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``(low, high]`` bounds of bucket ``index`` (bucket 0 is [0, min])."""
        if index <= 0:
            return (0.0, self.min_value_us)
        return (
            self.min_value_us * self.growth ** (index - 1),
            self.min_value_us * self.growth ** index,
        )

    def record(self, value: float) -> None:
        """Add one sample."""
        index = self.bucket_index(value)  # raises before anything is touched
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def record_many(self, values: Iterable[float]) -> None:
        """Bulk :meth:`record`: one vectorised pass, same resulting state.

        The whole batch is validated before anything is touched.
        ``total`` is a running (``cumsum``) sum continued from the current
        total, so it accumulates left to right exactly like repeated
        ``record`` calls — never a pairwise or compensated sum.  Bucket
        indices come from numpy's ``log``; a value whose log-ratio lands
        within 1e-6 of an integer — six orders of magnitude beyond any
        difference between numpy's ``log`` and ``math.log`` — is bucketed
        through the scalar :meth:`bucket_index` instead, so the vectorised
        path can never disagree with :meth:`record`.
        """
        samples = np.fromiter(values, dtype=np.float64)
        if not samples.size:
            return
        low = float(samples.min())
        if low < 0:
            raise ReproError(f"negative latency {low!r}")
        indices = np.zeros(samples.size, dtype=np.int64)
        above = np.flatnonzero(samples > self.min_value_us)
        if above.size:
            ratios = np.log(samples[above] / self.min_value_us) / self._log_growth
            indices[above] = np.maximum(1, np.ceil(ratios - 1e-9))
            for at in above[np.abs(ratios - np.rint(ratios)) < 1e-6].tolist():
                indices[at] = self.bucket_index(float(samples[at]))
        buckets = self._buckets
        occupied, counts = np.unique(indices, return_counts=True)
        for index, count in zip(occupied.tolist(), counts.tolist()):
            buckets[index] = buckets.get(index, 0) + count
        self.count += samples.size
        self.total = float(np.cumsum(np.concatenate(([self.total], samples)))[-1])
        if low < self._min:
            self._min = low
        high = float(samples.max())
        if high > self._max:
            self._max = high

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def _require_samples(self) -> None:
        if self.count == 0:
            raise ReproError("no samples recorded")

    @property
    def max(self) -> float:
        self._require_samples()
        return self._max

    @property
    def min(self) -> float:
        self._require_samples()
        return self._min

    def mean(self) -> float:
        self._require_samples()
        return self.total / self.count

    def percentile(self, pct: float) -> float:
        """Approximate percentile (0 < pct <= 100), within one bucket width.

        Returns the upper bound of the bucket containing the sample of
        rank ``ceil(pct/100 * count)``, clamped to the observed min/max so
        extreme percentiles stay inside the sampled range.
        """
        if not 0 < pct <= 100:
            raise ReproError("percentile must lie in (0, 100]")
        self._require_samples()
        rank = max(1, int(math.ceil(pct / 100.0 * self.count)))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                _, high = self.bucket_bounds(index)
                return min(max(high, self._min), self._max)
        return self._max  # pragma: no cover - unreachable

    def percentiles(
        self, pcts: Sequence[float] = DEFAULT_PERCENTILES
    ) -> Dict[float, float]:
        return {pct: self.percentile(pct) for pct in pcts}

    def summary(self) -> Dict[str, float]:
        """The headline quantiles: p50/p90/p99/p99.9/max (ISSUE set)."""
        self._require_samples()
        return {
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "p99.9": self.percentile(99.9),
            "max": self._max,
        }

    # ------------------------------------------------------------------
    # Composition / export
    # ------------------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (same geometry)."""
        if (other.growth, other.min_value_us) != (self.growth, self.min_value_us):
            raise ReproError("cannot merge histograms with different geometry")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready export (geometry, totals, occupied buckets)."""
        return {
            "growth": self.growth,
            "min_value_us": self.min_value_us,
            "count": self.count,
            "total_us": self.total,
            "min_us": self._min if self.count else None,
            "max_us": self._max if self.count else None,
            "buckets": {str(i): n for i, n in sorted(self._buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.count:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram(n={self.count}, mean={self.mean():.1f}us, "
            f"p99={self.percentile(99.0):.1f}us, max={self._max:.1f}us)"
        )
