"""Latency recording over virtual time.

Collects per-operation latencies (microseconds of virtual time) and
computes exact percentiles — the paper reports P90 through P99.99
(Fig. 8) — plus the per-interval average-latency timeline behind Fig. 1's
fluctuation plot.

Each :class:`LatencyRecorder` also feeds a streaming
:class:`~repro.obs.histogram.LatencyHistogram` (the observability layer's
log-bucketed percentile path): paper figures keep the exact sorted-sample
percentiles, while ``recorder.histogram`` answers the same queries in O(1)
memory for production-scale runs where storing every sample is off the
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..obs.histogram import LatencyHistogram

#: The percentiles of the paper's Fig. 8.
PAPER_PERCENTILES = (90.0, 99.0, 99.9, 99.99)


#: Samples a recorder lets pile up before it folds them into the
#: histogram.  A vectorised pass has a fixed cost (~30 us, a dozen numpy
#: calls) that equals the per-sample loop it replaced at ~250 samples —
#: folding each 256-sample batch buys nothing — and is 3-10x cheaper per
#: sample from a few thousand up (measured when the recorders moved to
#: folding; docs/PERF.md's summary table, the tables in git history).
FOLD_WATERMARK = 1 << 16

#: Samples per vectorised pass within one fold: bounds the fold's numpy
#: temporaries (a dozen arrays of this length) so a fold never shows in
#: the process's peak memory.
_FOLD_BLOCK = 1 << 13


class LatencyRecorder:
    """Accumulates latencies and answers percentile/mean queries.

    Exact percentiles come from the stored samples; the streaming
    :attr:`histogram` carries the count-independent aggregates — float sum,
    minimum, maximum, log buckets — and provides the bounded-memory
    estimates.

    **One ledger, folded on demand.**  Recording is ``list.extend`` plus a
    count: samples are *not* pushed through the histogram as they arrive.
    The not-yet-folded tail is folded in one vectorised pass
    (:meth:`LatencyHistogram.record_many`) when it reaches
    :data:`FOLD_WATERMARK` samples or on the first query that needs an
    aggregate (:attr:`histogram`, :meth:`percentile` once sampled,
    :meth:`mean`, :meth:`minimum`, :meth:`maximum`, :meth:`merge_from`).
    The resulting state is exactly what per-sample recording produced;
    ``len()`` is always current.

    **Sampling mode.**  A 10M-operation run would otherwise hold 10M
    Python floats per recorder.  ``sample_stride=k`` stores every k-th
    sample; ``max_samples=n`` caps the stored list.  The histogram, the
    count, the mean, the minimum and the maximum stay *exact* in every
    mode (they are streamed, not sampled); only the stored-sample list is
    thinned.  Once any sample has been dropped, :meth:`percentile`
    answers from the histogram — within one log-bucket (``growth - 1``,
    5%) of the exact value — instead of pretending the sampled list is
    the population.  The default (``stride=1``, no cap) stores every
    sample.
    """

    def __init__(
        self,
        sample_stride: int = 1,
        max_samples: Optional[int] = None,
    ) -> None:
        if sample_stride < 1:
            raise ReproError("sample_stride must be >= 1")
        if max_samples is not None and max_samples < 1:
            raise ReproError("max_samples must be >= 1 when set")
        self._values: List[float] = []
        self._sorted: Optional[np.ndarray] = None
        self._stride = sample_stride
        self._max_samples = max_samples
        #: True once any sample was not stored (strided out or over cap).
        self._lossy = sample_stride > 1
        self._count = 0
        self._histogram = LatencyHistogram()
        #: Samples recorded but not yet folded into the histogram.  With
        #: every sample stored they are the last ``_unfolded`` entries of
        #: ``_values`` (no second copy); a sampling recorder buffers them
        #: in ``_pending`` until the fold.
        self._unfolded = 0
        self._pending: Optional[List[float]] = (
            None if sample_stride == 1 and max_samples is None else []
        )

    def record(self, latency_us: float) -> None:
        self.record_many((latency_us,))

    def record_many(self, latencies: Sequence[float]) -> None:
        """Record a chunk of latencies, in order.

        Costs the same handful of C calls for 16 samples as for 16,000:
        one ``min`` to validate (before anything is touched), one
        ``extend`` to store, and the fold (see class docstring) once per
        :data:`FOLD_WATERMARK` samples.
        """
        if not latencies:
            return
        lowest = min(latencies)
        if lowest < 0:
            raise ReproError(f"negative latency {lowest!r}")
        count = self._count
        added = len(latencies)
        self._count = count + added
        self._unfolded += added
        self._sorted = None
        pending = self._pending
        if pending is None:
            self._values.extend(latencies)
        else:
            pending.extend(latencies)
            kept = latencies[-count % self._stride :: self._stride]
            if self._max_samples is not None:
                room = max(0, self._max_samples - len(self._values))
                if len(kept) > room:
                    kept = kept[:room]
                    self._lossy = True
            self._values.extend(kept)
        if self._unfolded >= FOLD_WATERMARK:
            self._fold()

    def _fold(self) -> None:
        """Fold the unfolded tail into the histogram (sum, min, max, buckets)."""
        unfolded = self._unfolded
        if not unfolded:
            return
        self._unfolded = 0
        if self._pending is None:
            source, start = self._values, len(self._values) - unfolded
        else:
            source, start = self._pending, 0
            self._pending = []
        record = self._histogram.record_many
        for at in range(start, len(source), _FOLD_BLOCK):
            record(source[at : at + _FOLD_BLOCK])

    @property
    def histogram(self) -> LatencyHistogram:
        """Streaming log-bucketed view of every sample recorded so far.

        Folded on demand: the returned histogram is current as of this
        access, not a live view of samples recorded afterwards.
        """
        self._fold()
        return self._histogram

    def merge_from(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's state into this one."""
        self._fold()
        self._values.extend(other._values)
        self._sorted = None
        self._count += other._count
        self._lossy = self._lossy or other._lossy
        self._histogram.merge(other.histogram)

    def __len__(self) -> int:
        """Total number of latencies recorded (not just those stored)."""
        return self._count

    @property
    def is_sampled(self) -> bool:
        """True when the stored-sample list no longer holds every sample."""
        return self._lossy

    @property
    def sample_count(self) -> int:
        """Number of samples actually stored (== ``len`` unless sampled)."""
        return len(self._values)

    def _ensure_sorted(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self._values, dtype=np.float64))
        return self._sorted

    def percentile(self, pct: float) -> float:
        """Percentile (0 < pct <= 100) of the recorded latencies.

        Exact (from the stored samples) until sampling drops any sample;
        after that, answered by the streaming histogram, which is within
        one log-bucket of exact.
        """
        if not 0 < pct <= 100:
            raise ReproError("percentile must lie in (0, 100]")
        if self._count == 0:
            raise ReproError("no latencies recorded")
        if self._lossy:
            return self.histogram.percentile(pct)
        data = self._ensure_sorted()
        index = min(data.size - 1, int(np.ceil(pct / 100.0 * data.size)) - 1)
        return float(data[max(0, index)])

    def percentiles(
        self, pcts: Sequence[float] = PAPER_PERCENTILES
    ) -> Dict[float, float]:
        return {pct: self.percentile(pct) for pct in pcts}

    def mean(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        if not self._lossy:
            # Exact mode keeps the historical numpy pairwise-sum mean so
            # previously reported numbers reproduce bit for bit.
            return float(np.mean(self._values))
        return self.histogram.total / self._count

    def maximum(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        return self.histogram.max

    def minimum(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        return self.histogram.min

    @property
    def values(self) -> Sequence[float]:
        """The stored samples (every sample unless sampling is enabled)."""
        return self._values


@dataclass
class TimelinePoint:
    """Average latency within one virtual-time bucket (Fig. 1 series).

    ``stall_us`` attributes the bucket's latency to back-pressure: the
    virtual time its operations spent in L0 throttling (slowdown delays,
    stop stalls) plus device-channel waits behind background compaction
    chunks.  Zero whenever the scheduler is off and no stop stall fired —
    a spike with large ``stall_us`` is compaction interference, not
    workload variance.
    """

    start_us: float
    count: int
    mean_latency_us: float
    max_latency_us: float
    stall_us: float = 0.0


class LatencyTimeline:
    """Buckets latencies by virtual time to expose fluctuation (Fig. 1).

    The paper plots "the average latency per second of all the requests";
    the bucket width is configurable because simulated runs compress time.
    """

    def __init__(self, bucket_us: float = 1_000_000.0) -> None:
        if bucket_us <= 0:
            raise ReproError("bucket width must be positive")
        self.bucket_us = bucket_us
        self._sums: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}
        self._maxes: Dict[int, float] = {}
        self._stalls: Dict[int, float] = {}

    def record(
        self, timestamp_us: float, latency_us: float, stall_us: float = 0.0
    ) -> None:
        self.record_many(((timestamp_us, latency_us, stall_us),))

    def record_many(self, events: Iterable[Tuple[float, float, float]]) -> None:
        """Record ``(timestamp_us, latency_us, stall_us)`` events, in order.

        The current bucket's sum / count / max / stall ride in locals and
        are written back when the bucket changes: a run's timestamps are
        monotonic, so the dicts are touched per bucket, not per event.
        """
        bucket_us = self.bucket_us
        sums, counts, maxes, stalls = (
            self._sums, self._counts, self._maxes, self._stalls
        )
        current = None
        total = peak = 0.0
        count = 0
        stalled = None
        for timestamp_us, latency_us, stall_us in events:
            bucket = int(timestamp_us // bucket_us)
            if bucket != current:
                if current is not None:
                    sums[current], counts[current], maxes[current] = total, count, peak
                    if stalled is not None:
                        stalls[current] = stalled
                current = bucket
                total = sums.get(bucket, 0.0)
                count = counts.get(bucket, 0)
                peak = maxes.get(bucket, 0.0)
                stalled = stalls.get(bucket)
            total += latency_us
            count += 1
            if latency_us > peak:
                peak = latency_us
            if stall_us:
                stalled = (stalled or 0.0) + stall_us
        if current is not None:
            sums[current], counts[current], maxes[current] = total, count, peak
            if stalled is not None:
                stalls[current] = stalled

    def points(self) -> List[TimelinePoint]:
        return [
            TimelinePoint(
                start_us=bucket * self.bucket_us,
                count=self._counts[bucket],
                mean_latency_us=self._sums[bucket] / self._counts[bucket],
                max_latency_us=self._maxes[bucket],
                stall_us=self._stalls.get(bucket, 0.0),
            )
            for bucket in sorted(self._counts)
        ]

    def fluctuation_ratio(self) -> float:
        """Largest bucket mean over smallest bucket mean.

        The paper's motivating measurement: "the fluctuation extent of the
        write latency reaches up to 49.13 times compared with the smallest
        latency" (Fig. 1).
        """
        points = self.points()
        if not points:
            raise ReproError("no timeline points recorded")
        means = [point.mean_latency_us for point in points]
        smallest = min(means)
        if smallest <= 0:
            return float("inf")
        return max(means) / smallest
