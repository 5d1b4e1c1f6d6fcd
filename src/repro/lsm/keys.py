"""Key-range helpers.

All internal range queries use half-open byte-key intervals ``[lo, hi)``
with ``None`` meaning unbounded.  The paper's responsibility ranges
(Example 3.2) are of the form ``(prev_max, max]``; in the byte keyspace the
immediate successor of ``k`` is ``k + b"\\x00"``, so ``(a, b]`` converts
exactly to ``[successor(a), successor(b))``.
"""

from __future__ import annotations

from typing import Optional


def key_successor(key: bytes) -> bytes:
    """Smallest byte string strictly greater than ``key``."""
    return key + b"\x00"


def in_range(key: bytes, lo: Optional[bytes], hi: Optional[bytes]) -> bool:
    """Membership test for the half-open interval ``[lo, hi)``."""
    if lo is not None and key < lo:
        return False
    if hi is not None and key >= hi:
        return False
    return True


def clamp_range(
    lo: Optional[bytes],
    hi: Optional[bytes],
    outer_lo: Optional[bytes],
    outer_hi: Optional[bytes],
) -> tuple[Optional[bytes], Optional[bytes]]:
    """Intersect ``[lo, hi)`` with ``[outer_lo, outer_hi)``."""
    new_lo = lo
    if outer_lo is not None and (new_lo is None or outer_lo > new_lo):
        new_lo = outer_lo
    new_hi = hi
    if outer_hi is not None and (new_hi is None or outer_hi < new_hi):
        new_hi = outer_hi
    return new_lo, new_hi
