"""Key distributions: uniform and Zipf.

The paper's default is the uniform distribution; Fig. 11 compares it with
Zipf distributions whose constant ranges from 1 to 5 ("the larger the Zipf
constant is, the accesses are more concentrated on some popular key-value
pairs").  We implement:

* **uniform** — every key equally likely;
* **zipf(s)** — rank ``r`` (1-based) drawn with probability ∝ ``1 / r^s``,
  using inverse-CDF sampling over a precomputed table (exact, not the
  rejection approximation), with ranks scattered over the key space by a
  fixed pseudo-random permutation so popular keys are not adjacent.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..errors import WorkloadError


class KeyDistribution(Protocol):
    """Samples key indices in ``[0, key_space)``."""

    def sample(self) -> int:  # pragma: no cover - protocol signature
        """Return the next key index."""

    def sample_block(self, count: int) -> list:  # pragma: no cover
        """Return the next ``count`` key indices, as ``sample`` would."""


class UniformKeys:
    """Uniformly random key indices."""

    def __init__(self, key_space: int, rng: np.random.Generator) -> None:
        if key_space <= 0:
            raise WorkloadError("key_space must be positive")
        self._key_space = key_space
        self._rng = rng

    def sample(self) -> int:
        return int(self._rng.integers(0, self._key_space))

    def sample_block(self, count: int) -> list:
        """Draw ``count`` indices in one vectorized call.

        Bit-identical to ``count`` successive :meth:`sample` calls: numpy's
        bounded-integer generation consumes the bit stream identically for
        ``integers(0, k, size=n)`` and ``n`` scalar ``integers(0, k)``
        draws (pinned through the generator by ``tests/test_workload_ycsb.py``).
        """
        return self._rng.integers(0, self._key_space, size=count).tolist()


class ZipfKeys:
    """Exact Zipf-distributed key indices via inverse-CDF sampling.

    Probability of rank ``r`` (1-based) is ``r^-s / H(n, s)``.  Ranks are
    mapped onto key indices through a seeded permutation, so the hot set is
    spread across the key space — matching YCSB's *scrambled* Zipfian and
    avoiding an artificial hot key *range* that would make compaction
    locality trivially favourable.
    """

    def __init__(
        self,
        key_space: int,
        constant: float,
        rng: np.random.Generator,
        scramble: bool = True,
    ) -> None:
        if key_space <= 0:
            raise WorkloadError("key_space must be positive")
        if constant <= 0:
            raise WorkloadError("zipf constant must be positive")
        self._rng = rng
        ranks = np.arange(1, key_space + 1, dtype=np.float64)
        weights = ranks ** (-float(constant))
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if scramble:
            # Permutation seeded independently of the sampling stream so
            # the hot set is stable across runs with the same key space.
            perm_rng = np.random.default_rng(key_space * 2654435761 % 2**32)
            self._perm = perm_rng.permutation(key_space)
        else:
            self._perm = np.arange(key_space)
        # Plain-int copy for sample(): indexing a Python list returns an
        # int directly, skipping a numpy scalar round-trip per draw.
        self._perm_list = self._perm.tolist()

    def sample(self) -> int:
        u = self._rng.random()
        rank = int(np.searchsorted(self._cdf, u, side="left"))
        return self._perm_list[rank]

    def sample_block(self, count: int) -> list:
        """Draw ``count`` indices in one vectorized call.

        Bit-identical to ``count`` successive :meth:`sample` calls:
        ``rng.random(count)`` consumes the bit stream exactly like
        ``count`` scalar ``random()`` draws, and the batched
        ``searchsorted`` matches the per-draw binary search.
        """
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u, side="left")
        perm = self._perm_list
        return [perm[rank] for rank in ranks.tolist()]

    def probability_of_rank(self, rank: int) -> float:
        """P(rank) for tests (1-based rank)."""
        if rank == 1:
            return float(self._cdf[0])
        return float(self._cdf[rank - 1] - self._cdf[rank - 2])


def make_distribution(
    distribution: str,
    key_space: int,
    zipf_constant: float,
    rng: np.random.Generator,
) -> KeyDistribution:
    """Factory mapping a spec's distribution name to a sampler."""
    if distribution == "uniform":
        return UniformKeys(key_space, rng)
    if distribution == "zipf":
        return ZipfKeys(key_space, zipf_constant, rng)
    raise WorkloadError(f"unknown distribution {distribution!r}")
