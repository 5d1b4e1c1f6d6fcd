"""Unit and property tests for Bloom filters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import DB
from repro.lsm import bloom as bloom_module
from repro.lsm.bloom import BloomFilter, optimal_hash_count, theoretical_fpr
from repro.lsm.config import LSMConfig

keys = st.binary(min_size=1, max_size=16)


class TestBasics:
    def test_contains_all_inserted(self):
        keyset = [f"key{i}".encode() for i in range(100)]
        bloom = BloomFilter(keyset, bits_per_key=10)
        assert all(bloom.may_contain(key) for key in keyset)

    def test_zero_bits_answers_maybe(self):
        bloom = BloomFilter([b"a"], bits_per_key=0)
        assert bloom.may_contain(b"anything")
        assert bloom.size_bytes == 0

    def test_empty_keyset_answers_definitely_not(self):
        """An enabled filter over no keys can rule out every probe.

        Nothing was inserted, so every "maybe" would be a false positive;
        answering False is both allowed and strictly better.
        """
        bloom = BloomFilter([], bits_per_key=10)
        assert not bloom.may_contain(b"x")
        assert bloom.size_bytes == 0

    def test_empty_keyset_with_disabled_filter_stays_maybe(self):
        """bits_per_key=0 disables filtering entirely, even with no keys."""
        bloom = BloomFilter([], bits_per_key=0)
        assert bloom.may_contain(b"x")

    def test_size_scales_with_bits_per_key(self):
        keyset = [f"key{i}".encode() for i in range(1000)]
        small = BloomFilter(keyset, bits_per_key=8)
        large = BloomFilter(keyset, bits_per_key=64)
        assert large.size_bytes == pytest.approx(small.size_bytes * 8, rel=0.01)

    def test_paper_fig13_size_shape(self):
        """Fig. 13: filter size is linear in bits/key (bits/8 bytes per key).

        (The paper's absolute 11.3 KB at 8 bits/key for a 2-MB SSTable
        reflects LevelDB's Snappy block compression packing ~11.5k pairs
        per file; our uncompressed tables hold ~2k.  The *law* — size =
        keys x bits/8 — is what carries over.)
        """
        keys_per_table = 2 * 2**20 // (16 + 1024 + 13)
        bloom = BloomFilter(
            [str(i).zfill(16).encode() for i in range(keys_per_table)],
            bits_per_key=8,
        )
        assert bloom.size_bytes == pytest.approx(keys_per_table * 8 / 8, rel=0.05)

    def test_deterministic_across_instances(self):
        keyset = [f"k{i}".encode() for i in range(50)]
        a = BloomFilter(keyset, 10)
        b = BloomFilter(keyset, 10)
        probes = [f"p{i}".encode() for i in range(200)]
        assert [a.may_contain(p) for p in probes] == [b.may_contain(p) for p in probes]


class TestFalsePositiveRate:
    def test_fpr_reasonable_at_10_bits(self):
        """~1% expected at 10 bits/key; assert well under 5%."""
        keyset = [f"member{i}".encode() for i in range(2000)]
        bloom = BloomFilter(keyset, bits_per_key=10)
        probes = (f"absent{i}".encode() for i in range(5000))
        assert bloom.false_positive_rate(probes) < 0.05

    def test_fpr_improves_with_more_bits(self):
        keyset = [f"member{i}".encode() for i in range(2000)]
        probes = [f"absent{i}".encode() for i in range(5000)]
        fpr4 = BloomFilter(keyset, 4).false_positive_rate(probes)
        fpr16 = BloomFilter(keyset, 16).false_positive_rate(probes)
        assert fpr16 < fpr4

    def test_diminishing_returns_past_16_bits(self):
        """Fig. 13's conclusion: beyond ~16 bits/key gains are negligible."""
        keyset = [f"member{i}".encode() for i in range(1000)]
        probes = [f"absent{i}".encode() for i in range(5000)]
        fpr16 = BloomFilter(keyset, 16).false_positive_rate(probes)
        fpr128 = BloomFilter(keyset, 128).false_positive_rate(probes)
        assert fpr16 - fpr128 < 0.005

    def test_empirical_close_to_theoretical(self):
        keyset = [f"member{i}".encode() for i in range(3000)]
        probes = [f"absent{i}".encode() for i in range(10000)]
        measured = BloomFilter(keyset, 8).false_positive_rate(probes)
        expected = theoretical_fpr(8)
        assert measured == pytest.approx(expected, abs=0.02)


class TestHashCount:
    def test_optimal_hash_count_formula(self):
        assert optimal_hash_count(10) == 7  # 10 * ln2 ~ 6.93
        assert optimal_hash_count(1) == 1
        assert optimal_hash_count(100) == 30  # clamped

    def test_theoretical_fpr_monotone(self):
        values = [theoretical_fpr(b) for b in (0, 1, 4, 8, 16, 32)]
        assert values == sorted(values, reverse=True)
        assert theoretical_fpr(0) == 1.0


class TestProperties:
    @given(st.sets(keys, min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_no_false_negatives_ever(self, key_set):
        """The defining Bloom filter invariant."""
        bloom = BloomFilter(sorted(key_set), bits_per_key=10)
        assert all(bloom.may_contain(key) for key in key_set)

    @given(
        st.sets(keys, min_size=1, max_size=100),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=30)
    def test_no_false_negatives_any_size(self, key_set, bits):
        bloom = BloomFilter(sorted(key_set), bits_per_key=bits)
        assert all(bloom.may_contain(key) for key in key_set)

    @given(st.sets(keys, min_size=8, max_size=100), st.lists(keys, max_size=50))
    @settings(max_examples=30)
    def test_handed_in_hashes_answer_as_the_key_does(self, key_set, probes):
        """``may_contain(key, key_hashes(key))`` is ``may_contain(key)``."""
        filt = BloomFilter(sorted(key_set), bits_per_key=10)
        for key in list(key_set) + probes:
            assert filt.may_contain(key, bloom_module.key_hashes(key)) == filt.may_contain(key)


def module_sizes() -> dict:
    """``len`` of every sized module-level attribute of ``repro.lsm.bloom``."""
    sizes = {}
    for name, value in vars(bloom_module).items():
        try:
            sizes[name] = len(value)
        except TypeError:
            pass
    return sizes


class TestNoGrowingState:
    """``repro.lsm.bloom`` holds no container that grows with use.

    The module once kept a process-global ``(h1, h2)`` memo — up to a
    million entries, never released — that every build wrote.  Nothing
    module-level may change size now, whatever is built or probed.
    """

    def test_builds_and_reads_leave_the_module_as_it_was(self):
        before = module_sizes()
        for index in range(1_000):
            BloomFilter([b"built-%d-%d" % (index, i) for i in range(20)], 10)
        db = DB(config=LSMConfig(block_cache_bytes=64 * 1024), policy="ldc")
        for index in range(3_000):
            db.put(b"stored-%06d" % index, b"v" * 100)
        db.flush()
        for index in range(0, 3_000, 10):
            assert db.get(b"stored-%06d" % index) == b"v" * 100
        for index in range(10_000):
            # Distinct keys inside the files' ranges: each probes a filter.
            assert db.get(b"stored-%06d-%d" % (index % 3_000, index)) is None
        assert db.metrics().get("engine.bloom_negative_skips") > 9_000
        filt = BloomFilter([b"a%d" % i for i in range(20)], bits_per_key=10)
        assert not any(
            filt.may_contain(b"direct-probe-%d" % i) for i in range(0, 1000, 200)
        )
        assert module_sizes() == before
