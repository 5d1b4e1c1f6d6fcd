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
