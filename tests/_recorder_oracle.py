"""The per-sample recorders, kept as a test oracle.

Until PR 23 ``LatencyRecorder.record`` / ``record_many``,
``LatencyHistogram.record`` / ``record_many`` and ``LatencyTimeline.record``
each ran a Python loop per sample: running sum / min / max, a memoised
``math.log`` bucket index, four dict updates per timeline event.  The
recorders in ``src/`` now store a chunk with one ``list.extend`` and fold
the aggregates and the histogram per watermark in one vectorised pass; the
loops live on here, verbatim, as the reference
``tests/test_recorder_equivalence.py`` pair-runs against: same stored
samples, same count, same float sum (accumulated in arrival order), same
min / max, same buckets, same timeline points — compared with ``==``.

The oracle classes keep the parent's *recording* code and inherit the
queries that did not change (``percentile``, ``to_dict``, ``merge``,
``points``) from the classes under test.
"""

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ReproError
from repro.harness.latency import PAPER_PERCENTILES, LatencyTimeline
from repro.obs.histogram import LatencyHistogram


class OracleHistogram(LatencyHistogram):
    """``LatencyHistogram`` with the parent's memoised per-sample recording."""

    _INDEX_CACHE_MAX = 4096

    def __init__(self, growth: float = 1.05, min_value_us: float = 0.5) -> None:
        super().__init__(growth, min_value_us)
        self._index_cache: Dict[float, int] = {}

    def record(self, value: float) -> None:
        index = self._index_cache.get(value)
        if index is None:
            if value <= self.min_value_us:
                if value < 0:
                    raise ReproError(f"negative latency {value!r}")
                index = 0
            else:
                ratio = math.log(value / self.min_value_us) / self._log_growth
                index = max(1, int(math.ceil(ratio - 1e-9)))
            if len(self._index_cache) < self._INDEX_CACHE_MAX:
                self._index_cache[value] = index
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def record_many(self, values: Iterable[float]) -> None:
        cache = self._index_cache
        cache_get = cache.get
        cache_max = self._INDEX_CACHE_MAX
        buckets = self._buckets
        buckets_get = buckets.get
        min_value = self.min_value_us
        log_growth = self._log_growth
        log = math.log
        ceil = math.ceil
        total = self.total
        vmin = self._min
        vmax = self._max
        added = 0
        for value in values:
            index = cache_get(value)
            if index is None:
                if value <= min_value:
                    if value < 0:
                        raise ReproError(f"negative latency {value!r}")
                    index = 0
                else:
                    ratio = log(value / min_value) / log_growth
                    index = max(1, int(ceil(ratio - 1e-9)))
                if len(cache) < cache_max:
                    cache[value] = index
            buckets[index] = buckets_get(index, 0) + 1
            added += 1
            total += value
            if value < vmin:
                vmin = value
            if value > vmax:
                vmax = value
        self.count += added
        self.total = total
        self._min = vmin
        self._max = vmax


class OracleRecorder:
    """``LatencyRecorder`` as PR 22 left it: every aggregate and the
    histogram are updated per sample, inside ``record`` / ``record_many``."""

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
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        #: Streaming log-bucketed view of the same samples.
        self.histogram = OracleHistogram()

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ReproError(f"negative latency {latency_us!r}")
        count = self._count
        self._count = count + 1
        self._sum += latency_us
        if latency_us > self._max:
            self._max = latency_us
        if latency_us < self._min:
            self._min = latency_us
        self.histogram.record(latency_us)
        if count % self._stride == 0:
            cap = self._max_samples
            if cap is None or len(self._values) < cap:
                self._values.append(latency_us)
                self._sorted = None
            else:
                self._lossy = True

    def record_many(self, latencies: Sequence[float]) -> None:
        """Record a chunk of latencies, in order.

        Equivalent to calling :meth:`record` once per value — same stored
        samples, same histogram, same running aggregates (the float sum
        accumulates sequentially in the same order) — with the per-call
        dispatch amortised for the chunked runner loop.
        """
        if not latencies:
            return
        stride = self._stride
        cap = self._max_samples
        count = self._count
        total = self._sum
        vmin = self._min
        vmax = self._max
        store = self._values
        push = store.append
        stored = len(store)
        for value in latencies:
            if value < 0:
                raise ReproError(f"negative latency {value!r}")
            if value > vmax:
                vmax = value
            if value < vmin:
                vmin = value
            total += value
            if count % stride == 0:
                if cap is None or stored < cap:
                    push(value)
                    stored += 1
                else:
                    self._lossy = True
            count += 1
        self._count = count
        self._sum = total
        self._min = vmin
        self._max = vmax
        self._sorted = None
        self.histogram.record_many(latencies)

    def merge_from(self, other: "OracleRecorder") -> None:
        """Fold another recorder's state into this one (shard aggregation)."""
        self._values.extend(other._values)
        self._sorted = None
        self._count += other._count
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        if other._min < self._min:
            self._min = other._min
        self._lossy = self._lossy or other._lossy
        self.histogram.merge(other.histogram)

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

    def streaming_percentiles(
        self, pcts: Sequence[float] = PAPER_PERCENTILES
    ) -> Dict[float, float]:
        """Histogram-estimated percentiles (within one bucket of exact)."""
        return self.histogram.percentiles(pcts)

    def mean(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        if not self._lossy:
            # Exact mode keeps the historical numpy pairwise-sum mean so
            # previously reported numbers reproduce bit for bit.
            return float(np.mean(self._values))
        return self._sum / self._count

    def maximum(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        return self._max

    def minimum(self) -> float:
        if self._count == 0:
            raise ReproError("no latencies recorded")
        return self._min

    @property
    def values(self) -> Sequence[float]:
        """The stored samples (every sample unless sampling is enabled)."""
        return self._values


class OracleTimeline(LatencyTimeline):
    """``LatencyTimeline`` with the parent's per-event dict updates."""

    def record(
        self, timestamp_us: float, latency_us: float, stall_us: float = 0.0
    ) -> None:
        bucket = int(timestamp_us // self.bucket_us)
        self._sums[bucket] = self._sums.get(bucket, 0.0) + latency_us
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._maxes[bucket] = max(self._maxes.get(bucket, 0.0), latency_us)
        if stall_us:
            self._stalls[bucket] = self._stalls.get(bucket, 0.0) + stall_us

    def record_many(self, events) -> None:
        for timestamp_us, latency_us, stall_us in events:
            self.record(timestamp_us, latency_us, stall_us)
