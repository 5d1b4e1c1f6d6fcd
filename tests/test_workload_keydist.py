"""Unit tests for key distributions."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.keydist import (
    UniformKeys,
    ZipfKeys,
    make_distribution,
)


def rng():
    return np.random.default_rng(123)


class TestUniform:
    def test_samples_in_range(self):
        dist = UniformKeys(100, rng())
        samples = [dist.sample() for _ in range(1000)]
        assert all(0 <= s < 100 for s in samples)

    def test_roughly_uniform(self):
        dist = UniformKeys(10, rng())
        counts = np.bincount([dist.sample() for _ in range(20_000)], minlength=10)
        assert counts.min() > 0.7 * counts.mean()
        assert counts.max() < 1.3 * counts.mean()

    def test_deterministic_given_seed(self):
        a = UniformKeys(1000, np.random.default_rng(5))
        b = UniformKeys(1000, np.random.default_rng(5))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_bad_key_space(self):
        with pytest.raises(WorkloadError):
            UniformKeys(0, rng())


class TestZipf:
    def test_samples_in_range(self):
        dist = ZipfKeys(100, 1.0, rng())
        assert all(0 <= dist.sample() < 100 for _ in range(1000))

    def test_rank_probabilities_follow_power_law(self):
        dist = ZipfKeys(1000, 1.0, rng())
        # P(rank 1) / P(rank 2) == 2^s for s = 1.
        assert dist.probability_of_rank(1) / dist.probability_of_rank(2) == (
            pytest.approx(2.0)
        )

    def test_larger_constant_more_concentrated(self):
        """The paper: 'the larger the Zipf constant is, the accesses are
        more concentrated on some popular key-value pairs'."""
        concentrations = {}
        for constant in (1.0, 2.0, 5.0):
            dist = ZipfKeys(5000, constant, rng())
            samples = [dist.sample() for _ in range(5000)]
            top = max(np.bincount(samples).max(), 1)
            concentrations[constant] = top / len(samples)
        assert concentrations[1.0] < concentrations[2.0] < concentrations[5.0]

    def test_scramble_spreads_hot_keys(self):
        scrambled = ZipfKeys(10_000, 2.0, rng(), scramble=True)
        hot = [scrambled.sample() for _ in range(200)]
        # The hot set should not be the first few indices.
        assert max(hot) > 100

    def test_unscrambled_hits_low_ranks(self):
        plain = ZipfKeys(10_000, 2.0, rng(), scramble=False)
        samples = [plain.sample() for _ in range(1000)]
        assert np.median(samples) < 10

    def test_hot_set_stable_across_streams(self):
        """The permutation depends only on the key space, so two runs see
        the same popular keys."""
        a = ZipfKeys(1000, 3.0, np.random.default_rng(1))
        b = ZipfKeys(1000, 3.0, np.random.default_rng(2))
        top_a = np.bincount([a.sample() for _ in range(3000)], minlength=1000).argmax()
        top_b = np.bincount([b.sample() for _ in range(3000)], minlength=1000).argmax()
        assert top_a == top_b

    def test_bad_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfKeys(0, 1.0, rng())
        with pytest.raises(WorkloadError):
            ZipfKeys(10, 0.0, rng())


class TestFactory:
    def test_uniform(self):
        assert isinstance(make_distribution("uniform", 10, 1.0, rng()), UniformKeys)

    def test_zipf(self):
        assert isinstance(make_distribution("zipf", 10, 1.0, rng()), ZipfKeys)

    def test_unknown(self):
        with pytest.raises(WorkloadError):
            make_distribution("pareto", 10, 1.0, rng())
