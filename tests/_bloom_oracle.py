"""The packed-bit Bloom filter, kept as a test oracle.

Until a filter became one byte per bit (:class:`repro.lsm.bloom.BloomFilter`
over a ``bytes`` table), it was a packed ``bytearray`` — bit ``p`` at
``bits[p >> 3] & (1 << (p & 7))`` — probed with a 40-bit modulo per hash
round.  Key sets below ``_VECTOR_BUILD_MIN`` were built by a scalar
``_add`` loop, larger ones by a numpy pass whose boolean scatter was packed
with ``np.packbits(bitorder="little")``; both read and wrote a
process-global ``(h1, h2)`` memo (here a module-level dict of this oracle's
own, so nothing it memoises reaches the code under test).

It lives on verbatim in behaviour as the reference
``tests/test_bloom_equivalence.py`` pair-runs the byte table against: the
same bits byte for byte once packed, the same answer to every probe, the
same ``size_bytes`` and ``hash_count``.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence

import numpy as np

from repro.lsm.bloom import optimal_hash_count

#: Below this many keys the scalar build path wins over numpy call overhead.
_VECTOR_BUILD_MIN = 8

#: Per-key ``(h1, h2)`` memo, capped like the process-global one was.
_HASH_CACHE: dict = {}
_HASH_CACHE_MAX = 1 << 20


def _base_hashes(key: bytes) -> tuple[int, int]:
    return zlib.crc32(key), (zlib.adler32(key) << 1) | 1


def key_hashes(key: bytes) -> tuple[int, int]:
    """The pair via the memo: read, never written."""
    return _HASH_CACHE.get(key) or _base_hashes(key)


class PackedBloomFilter:
    """The packed-bit filter: ``bits`` holds ``(nbits + 7) // 8`` bytes."""

    __slots__ = ("_bits", "_nbits", "_rounds", "_empty", "bits_per_key")

    def __init__(self, keys: Sequence[bytes], bits_per_key: int) -> None:
        self.bits_per_key = bits_per_key
        if bits_per_key <= 0 or not keys:
            self._bits = bytearray()
            self._nbits = 0
            self._rounds = range(0)
            self._empty = bits_per_key > 0
            return
        nbits = max(64, len(keys) * bits_per_key)
        self._nbits = nbits
        self._rounds = range(optimal_hash_count(bits_per_key))
        self._empty = False
        if len(keys) >= _VECTOR_BUILD_MIN:
            self._bits = self._build_vectorized(keys, nbits)
        else:
            self._bits = bytearray((nbits + 7) // 8)
            for key in keys:
                self._add(key)

    def _build_vectorized(self, keys: Sequence[bytes], nbits: int) -> bytearray:
        cache = _HASH_CACHE
        h1_list: list = []
        h2_list: list = []
        for key in keys:
            pair = cache.get(key)
            if pair is None:
                pair = _base_hashes(key)
                if len(cache) < _HASH_CACHE_MAX:
                    cache[key] = pair
            h1_list.append(pair[0])
            h2_list.append(pair[1])
        h1 = np.array(h1_list, dtype=np.int64)
        h2 = np.array(h2_list, dtype=np.int64)
        steps = np.arange(len(self._rounds), dtype=np.int64)
        positions = (h1[:, None] + h2[:, None] * steps[None, :]) % nbits
        flags = np.zeros(((nbits + 7) // 8) * 8, dtype=bool)
        flags[positions.ravel()] = True
        return bytearray(np.packbits(flags, bitorder="little").tobytes())

    def _add(self, key: bytes) -> None:
        h1, h2 = _base_hashes(key)
        bits = self._bits
        nbits = self._nbits
        for _ in self._rounds:
            bit = h1 % nbits
            bits[bit >> 3] |= 1 << (bit & 7)
            h1 += h2

    def may_contain(
        self, key: bytes, hashes: Optional[tuple[int, int]] = None
    ) -> bool:
        nbits = self._nbits
        if nbits == 0:
            return not self._empty
        h1, h2 = hashes if hashes is not None else key_hashes(key)
        bits = self._bits
        for _ in self._rounds:
            bit = h1 % nbits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            h1 += h2
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    @property
    def hash_count(self) -> int:
        return len(self._rounds)
