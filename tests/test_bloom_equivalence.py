"""Pair-run: the byte-table Bloom filter against the packed-bit oracle.

:class:`repro.lsm.bloom.BloomFilter` stores one byte per bit and probes it
by stepping a table index; the filter it replaced — a packed bit array
with a scalar build for small key sets, a ``packbits`` build for larger
ones and a process-global hash memo — lives on in
``tests/_bloom_oracle.py``.  Both are built over the same keys here and
must agree on every bit (the byte table, packed little-endian, is the
oracle's array byte for byte), on every probe inside and outside the set,
and on ``size_bytes`` / ``hash_count``.  Key sets run from empty through
the oracle's scalar/vector threshold to 300 keys, at every bits-per-key
from 0 to 32 and at the 200 of the Fig. 12c/f sweep.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import BloomFilter, key_hashes

from . import _bloom_oracle as oracle

keys = st.binary(min_size=1, max_size=16)


def packed(bloom: BloomFilter) -> bytes:
    """The filter's bits in the oracle's packed little-endian layout."""
    table = np.frombuffer(bloom._flags, np.uint8)
    return np.packbits(table, bitorder="little").tobytes()


def assert_matches_oracle(key_set, bits_per_key, probes) -> None:
    members = sorted(key_set)
    bloom = BloomFilter(members, bits_per_key)
    expected = oracle.PackedBloomFilter(members, bits_per_key)
    assert set(bloom._flags) <= {0, 1}
    assert packed(bloom) == bytes(expected._bits)
    assert bloom.size_bytes == expected.size_bytes
    assert bloom.hash_count == expected.hash_count
    for key in members + probes:
        answer = expected.may_contain(key)
        assert bloom.may_contain(key) == answer, key
        assert bloom.may_contain(key, key_hashes(key)) == answer, key


@given(
    st.sets(keys, max_size=300),
    st.integers(min_value=0, max_value=32),
    st.lists(keys, max_size=60),
)
@example(set(), 10, [b"x"])
@example({b"a"}, 0, [b"b"])
@example({b"k%d" % i for i in range(7)}, 10, [b"q"])
@example({b"k%d" % i for i in range(8)}, 10, [b"q"])
@example({b"k%03d" % i for i in range(120)}, 200, [b"k%03d" % i for i in range(120, 200)])
@settings(max_examples=150, deadline=None)
def test_byte_table_is_the_packed_filter(key_set, bits_per_key, probes):
    assert_matches_oracle(key_set, bits_per_key, probes)


@given(st.sets(keys, min_size=1, max_size=40), st.lists(keys, max_size=30))
@settings(max_examples=25, deadline=None)
def test_fig12cf_200_bits_per_key(key_set, probes):
    """The sweep's widest filter: 200 bits a key, the 30-probe clamp."""
    assert_matches_oracle(key_set, 200, probes)
