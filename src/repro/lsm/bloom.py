"""Bloom filters for SSTables.

Each SSTable carries a Bloom filter so point lookups can skip files that
certainly do not contain the target key (Example 2.1).  For LDC the filters
matter twice over: lookups on an SSTable with linked slices consult the
*frozen* files' filters to avoid reading slices needlessly (§III-B.3,
Figs. 12c/f and 13).

We use the standard double-hashing scheme ``h_i = h1 + i * h2``.  The two
base hashes are ``crc32(key)`` and ``adler32(key)`` — both C-implemented,
standardized checksums, so the bit patterns are deterministic across
processes and platforms (unlike Python's salted ``hash``) at a fraction of
the cost of the MD5 digest this module used previously (~4x faster per
probe set; the ``lsm.bloom`` rows of ``bench/``).  CRC32 alone mixes well;
Adler32 alone does not, but as the *step* of a double-hash whose base is a
CRC it only has to decorrelate the probe sequence, and the measured
false-positive rate sits at the theoretical optimum for both sequential
and random keys (pinned by the golden tests).

Construction is vectorized: probe positions for all keys are computed as
one numpy array and OR-ed into the bit array in bulk, producing *bit-exact*
the same filter as the scalar probe loop used for queries.
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable, Optional, Sequence

import numpy as np

#: Below this many keys the scalar build path wins over numpy call overhead.
_VECTOR_BUILD_MIN = 8

#: Shared memo of per-key ``(h1, h2)`` base-hash pairs.  The same user keys
#: recur across thousands of SSTable constructions during compaction (the
#: hash pair is a pure function of the key bytes), so build paths consult
#: this before recomputing.  Capped so unbounded key universes cannot grow
#: it without limit; on overflow new keys are simply not memoised.  Only
#: the build path writes it: a lookup reads it (:func:`key_hashes`) but a
#: read of a never-written key must not leave an entry behind.
_HASH_CACHE: dict = {}
_HASH_CACHE_MAX = 1 << 20


def _base_hashes(key: bytes) -> tuple[int, int]:
    """The ``(h1, h2)`` double-hash bases for ``key``.

    ``h2`` is forced odd so the probe sequence has full period over any
    power-of-two modulus and never degenerates to a single position.
    """
    return zlib.crc32(key), (zlib.adler32(key) << 1) | 1


def key_hashes(key: bytes) -> tuple[int, int]:
    """The ``(h1, h2)`` pair for a lookup of ``key``, via the shared memo.

    A point lookup calls this once and hands the pair to every filter it
    probes (:meth:`BloomFilter.may_contain`).  The memo is read, never
    written.
    """
    return _HASH_CACHE.get(key) or _base_hashes(key)


def optimal_hash_count(bits_per_key: float) -> int:
    """Number of hash probes minimising the false-positive rate.

    The optimum is ``bits_per_key * ln 2``; clamped to [1, 30] like LevelDB.
    """
    k = int(round(bits_per_key * math.log(2)))
    return max(1, min(30, k))


class BloomFilter:
    """An immutable-after-build Bloom filter over a set of byte keys.

    A filter built with ``bits_per_key <= 0`` is *disabled* and answers
    "maybe" for every probe; a filter built over an **empty key set** with
    positive ``bits_per_key`` answers "definitely not" for every probe
    (nothing was inserted, so nothing can be present).
    """

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
        # One round per hash function.  Kept as the probe loop's iterable,
        # built once: a ``range()`` call per probe costs as much as two of
        # the bit tests it drives.
        self._rounds = range(optimal_hash_count(bits_per_key))
        self._empty = False
        if len(keys) >= _VECTOR_BUILD_MIN:
            self._bits = self._build_vectorized(keys, nbits)
        else:
            self._bits = bytearray((nbits + 7) // 8)
            for key in keys:
                self._add(key)

    def _build_vectorized(self, keys: Sequence[bytes], nbits: int) -> bytearray:
        """Set all probe bits for ``keys`` in one numpy pass.

        ``h1 < 2**32`` and ``h2 < 2**34``, so ``h1 + i*h2`` stays below
        2**40 for every probe index ``i <= 30`` — int64 arithmetic is exact
        and matches the scalar ``_add`` loop bit for bit.  The final OR is
        a boolean scatter + ``packbits`` (little bit order matches the
        scalar ``bits[pos >> 3] |= 1 << (pos & 7)`` layout exactly).
        """
        cache = _HASH_CACHE
        crc32 = zlib.crc32
        adler32 = zlib.adler32
        h1_list: list = []
        h2_list: list = []
        push1 = h1_list.append
        push2 = h2_list.append
        if len(cache) < _HASH_CACHE_MAX:
            for key in keys:
                pair = cache.get(key)
                if pair is None:
                    pair = (crc32(key), (adler32(key) << 1) | 1)
                    cache[key] = pair
                push1(pair[0])
                push2(pair[1])
        else:
            for key in keys:
                pair = cache.get(key)
                if pair is None:
                    pair = (crc32(key), (adler32(key) << 1) | 1)
                push1(pair[0])
                push2(pair[1])
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
        """Return False only if ``key`` was definitely not inserted.

        ``hashes`` is ``key_hashes(key)`` when the caller already has it:
        a point lookup probes many filters with one key, and the pair
        depends on the key alone.
        """
        nbits = self._nbits
        if nbits == 0:
            return not self._empty
        h1, h2 = hashes if hashes is not None else key_hashes(key)
        bits = self._bits
        for _ in self._rounds:
            bit = h1 % nbits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            h1 += h2  # < 2**40 (see _build_vectorized): never wraps
        return True

    @property
    def size_bytes(self) -> int:
        """On-device footprint of the filter (plotted in Fig. 13)."""
        return len(self._bits)

    @property
    def hash_count(self) -> int:
        return len(self._rounds)

    def false_positive_rate(self, probes: Iterable[bytes]) -> float:
        """Measure the empirical FPR against keys known to be absent."""
        total = 0
        hits = 0
        for key in probes:
            total += 1
            if self.may_contain(key):
                hits += 1
        return hits / total if total else 0.0


def theoretical_fpr(bits_per_key: float) -> float:
    """Expected false-positive rate for the optimal hash count.

    ``(1 - e^{-kn/m})^k`` with ``k = m/n * ln2`` simplifies to
    ``0.5 ** (bits_per_key * ln 2)``.
    """
    if bits_per_key <= 0:
        return 1.0
    return 0.5 ** (bits_per_key * math.log(2))
