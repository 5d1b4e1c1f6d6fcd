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
and random keys (pinned by the golden tests).  The pair is a pure function
of the key, recomputed on every lookup and build: two C calls cost less
than any memo that would have to hold it.

Layout: the filter's ``nbits`` bits are held in memory one byte per bit — a
``bytes`` table of 0s and 1s — so a probe is one table index, and the
probe sequence ``(h1 + i*h2) % nbits`` is walked by adding ``h2 % nbits``
and wrapping, all on single-digit ints.  Bit ``p`` of the on-device filter
is entry ``p`` of the table; packed little-endian eight to a byte, the
table is the ``(nbits + 7) // 8``-byte filter :attr:`BloomFilter.size_bytes`
reports (and Fig. 13 plots).  The in-memory table is eight times that.

Construction maps both checksums over the key list at C level and sets
every probe position of every key in one numpy scatter.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence
from zlib import adler32, crc32

import numpy as np


def key_hashes(key: bytes) -> tuple[int, int]:
    """The ``(h1, h2)`` double-hash bases for ``key``.

    A point lookup calls this once and hands the pair to every filter it
    probes (:meth:`BloomFilter.may_contain`).  ``h2`` is forced odd so the
    probe sequence has full period over any power-of-two modulus and never
    degenerates to a single position.
    """
    return crc32(key), (adler32(key) << 1) | 1


def optimal_hash_count(bits_per_key: float) -> int:
    """Number of hash probes minimising the false-positive rate.

    The optimum is ``bits_per_key * ln 2``; clamped to [1, 30] like LevelDB.
    """
    k = int(round(bits_per_key * math.log(2)))
    return max(1, min(30, k))


class BloomFilter:
    """An immutable Bloom filter over a set of byte keys.

    A filter built with ``bits_per_key <= 0`` is *disabled* and answers
    "maybe" for every probe; a filter built over an **empty key set** with
    positive ``bits_per_key`` answers "definitely not" for every probe
    (nothing was inserted, so nothing can be present).
    """

    __slots__ = ("_flags", "_nbits", "_rounds", "_empty", "bits_per_key")

    def __init__(self, keys: Sequence[bytes], bits_per_key: int) -> None:
        self.bits_per_key = bits_per_key
        if bits_per_key <= 0 or not keys:
            self._flags = b""
            self._nbits = 0
            self._rounds = range(0)
            self._empty = bits_per_key > 0
            return
        count = len(keys)
        nbits = max(64, count * bits_per_key)
        k = optimal_hash_count(bits_per_key)
        self._nbits = nbits
        # Rounds 1 .. k-1, the probe loop's iterable (round 0 is tested
        # before it), built once: a ``range()`` call per probe costs as
        # much as two of the table tests it drives.
        self._rounds = range(1, k)
        self._empty = False
        # h1 < 2**32 and h2 < 2**34, so h1 + i*h2 < 2**40 for every round
        # i <= 30: int64 is exact.
        h1 = np.fromiter(map(crc32, keys), np.int64, count)
        h2 = np.fromiter(map(adler32, keys), np.int64, count) * 2 + 1
        steps = np.arange(k, dtype=np.int64)
        flags = np.zeros(nbits, np.uint8)
        flags[(h1[:, None] + h2[:, None] * steps) % nbits] = 1
        self._flags = flags.tobytes()

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
        flags = self._flags
        # Round i tests (h1 + i*h2) % nbits, stepped rather than recomputed.
        # Round 0 goes first, alone: about half of all absent keys stop there.
        at = h1 % nbits
        if not flags[at]:
            return False
        step = h2 % nbits
        for _ in self._rounds:
            at += step
            if at >= nbits:
                at -= nbits
            if not flags[at]:
                return False
        return True

    @property
    def size_bytes(self) -> int:
        """On-device (packed) footprint of the filter (plotted in Fig. 13)."""
        return (self._nbits + 7) // 8

    @property
    def hash_count(self) -> int:
        return self._rounds.stop  # 0 for a disabled or empty filter

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
