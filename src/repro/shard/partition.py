"""Keyspace partitioners: which shard owns which key.

A partitioner is a pure, picklable function from key bytes to a shard
index.  Determinism across processes is non-negotiable — the parallel
shard runner routes the same trace on the driver and re-derives nothing
in the workers — so hashing uses CRC-32 (standardised, seed-free) rather
than Python's per-process-salted ``hash()``.

Two strategies ship:

* :class:`HashPartitioner` — uniform key scatter.  Balances load for any
  key distribution but destroys key locality: a range scan touches every
  shard.
* :class:`RangePartitioner` — ordered split points.  Preserves locality
  (a scan usually stays within one shard) at the cost of load skew when
  the key distribution is not uniform over the split points.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import List, Sequence

from ..errors import ConfigError


class Partitioner(ABC):
    """Deterministic mapping from key bytes to a shard index."""

    #: Short identifier used in reports and the CLI ("hash", "range").
    kind: str = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ConfigError("num_shards must be positive")
        self.num_shards = num_shards

    @abstractmethod
    def shard_of(self, key: bytes) -> int:
        """The index in ``[0, num_shards)`` of the shard owning ``key``."""

    def describe(self) -> str:
        return f"{self.kind}({self.num_shards} shards)"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class HashPartitioner(Partitioner):
    """CRC-32 hash partitioning: uniform scatter, no locality.

    ``crc32`` is standardised (RFC 1952), byte-stable across platforms and
    processes, and cheap enough to sit on the put/get hot path.
    """

    kind = "hash"

    def shard_of(self, key: bytes) -> int:
        return zlib.crc32(key) % self.num_shards


class RangePartitioner(Partitioner):
    """Split-point partitioning: shard ``i`` owns keys < ``boundaries[i]``.

    ``boundaries`` are ``num_shards - 1`` strictly increasing keys; shard 0
    owns everything below the first boundary, the last shard everything at
    or above the final one (half-open ranges, like SSTable responsibility
    ranges).
    """

    kind = "range"

    def __init__(self, boundaries: Sequence[bytes]) -> None:
        super().__init__(len(boundaries) + 1)
        bounds = list(boundaries)
        for boundary in bounds:
            if not isinstance(boundary, bytes) or not boundary:
                raise ConfigError("range boundaries must be non-empty bytes")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ConfigError("range boundaries must be strictly increasing")
        self.boundaries: List[bytes] = bounds

    def shard_of(self, key: bytes) -> int:
        return bisect_right(self.boundaries, key)

    @classmethod
    def for_decimal_keyspace(
        cls, num_shards: int, key_space: int, key_bytes: int = 16
    ) -> "RangePartitioner":
        """Even split points for the workload generator's key encoding.

        The generator encodes key index ``i`` as ``str(i).zfill(key_bytes)``
        so lexicographic order equals numeric order; splitting the index
        space evenly therefore splits the byte space evenly too.
        """
        if num_shards <= 0:
            raise ConfigError("num_shards must be positive")
        if key_space < num_shards:
            raise ConfigError("key_space must be at least num_shards")
        boundaries = [
            str(key_space * index // num_shards).zfill(key_bytes).encode("ascii")
            for index in range(1, num_shards)
        ]
        return cls(boundaries)

    def describe(self) -> str:
        return f"range({self.num_shards} shards, {len(self.boundaries)} bounds)"


#: Registered partitioner kinds for CLI/spec lookups.
PARTITIONER_KINDS = ("hash", "range")


def make_partitioner(
    kind: "str | Partitioner",
    num_shards: int,
    key_space: int = 0,
    key_bytes: int = 16,
) -> Partitioner:
    """The partitioner a store or a run of ``num_shards`` shards routes by.

    ``kind`` is a kind name or a pre-built :class:`Partitioner`, which
    must cover exactly ``num_shards``.  ``range`` needs the key-space
    geometry to place its split points; the workload-driven callers (CLI,
    experiments) pass it through from the spec.
    """
    if isinstance(kind, Partitioner):
        if kind.num_shards != num_shards:
            raise ConfigError(
                f"partitioner covers {kind.num_shards} shards, "
                f"{num_shards} requested"
            )
        return kind
    if kind == "hash":
        return HashPartitioner(num_shards)
    if kind == "range":
        if num_shards == 1:
            return RangePartitioner([])
        if key_space <= 0:
            raise ConfigError(
                "range partitioning requires key_space to derive split points"
            )
        return RangePartitioner.for_decimal_keyspace(
            num_shards, key_space, key_bytes
        )
    raise ConfigError(
        f"unknown partitioner kind {kind!r}; known: {', '.join(PARTITIONER_KINDS)}"
    )
