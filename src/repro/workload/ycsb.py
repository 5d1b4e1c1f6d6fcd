"""YCSB-like operation stream generator.

Turns a :class:`~repro.workload.spec.WorkloadSpec` into a deterministic
stream of operations (:class:`Operation`).  The paper drives LevelDB with
the YCSB benchmark suite (§IV-A); this module reproduces the pieces the
paper uses and nothing more: random insertions mixed with point lookups
or 100-record scans under uniform or Zipf key choice.  The generator
never emits a delete (``OP_DELETE``) or YCSB F's read-modify-write
(``OP_RMW``); an explicit stream may carry both, and an RMW runs as a get
then a put of the same key.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

import numpy as np

from .keydist import make_distribution
from .spec import WorkloadSpec
from ..errors import WorkloadError

OP_PUT = "put"
OP_GET = "get"
OP_SCAN = "scan"
OP_DELETE = "delete"
OP_RMW = "rmw"  # read-modify-write (YCSB F): a get, then a put


class Operation(NamedTuple):
    """One generated request."""

    kind: str
    key: bytes
    value: Optional[bytes] = None
    scan_length: int = 0


#: Hard cap on the per-generator encoded-key memo so enormous key spaces
#: cannot balloon memory (1M keys x ~20 bytes is a few tens of MB at most).
_KEY_CACHE_MAX = 1 << 20


class WorkloadGenerator:
    """Deterministic operation stream for one workload spec.

    Key encoding: zero-padded decimal strings of ``key_bytes`` length, so
    lexicographic byte order equals numeric order and scan ranges behave
    like YCSB's ordered keys.

    Example
    -------
    >>> from repro.workload import rwb, WorkloadGenerator
    >>> gen = WorkloadGenerator(rwb(num_operations=4, key_space=10))
    >>> ops = list(gen.operations())
    >>> len(ops)
    4
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        root = np.random.SeedSequence(spec.seed)
        op_seed, key_seed, value_seed, load_seed = root.spawn(4)
        self._op_rng = np.random.default_rng(op_seed)
        self._key_rng = np.random.default_rng(key_seed)
        self._value_rng = np.random.default_rng(value_seed)
        self._load_rng = np.random.default_rng(load_seed)
        self._dist = make_distribution(
            spec.distribution, spec.key_space, spec.zipf_constant, self._key_rng
        )
        self._value_counter = 0
        # Skewed workloads re-encode the same hot keys constantly; memoise
        # the encodings (values are immutable bytes, sharing is safe).
        self._key_cache: dict = {}
        self._value_pad = b"x" * spec.value_bytes

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_key(self, index: int) -> bytes:
        """Map a key index to its fixed-width byte encoding."""
        cached = self._key_cache.get(index)
        if cached is not None:
            return cached
        if not 0 <= index < self.spec.key_space:
            raise WorkloadError(
                f"key index {index} outside [0, {self.spec.key_space})"
            )
        key = str(index).zfill(self.spec.key_bytes).encode("ascii")
        if len(self._key_cache) < _KEY_CACHE_MAX:
            self._key_cache[index] = key
        return key

    def decode_key(self, key: bytes) -> int:
        """Inverse of :meth:`encode_key`."""
        return int(key)

    def make_value(self) -> bytes:
        """A fresh deterministic value of the configured size."""
        self._value_counter += 1
        stamp = b"v%08d" % self._value_counter
        value_bytes = self.spec.value_bytes
        if len(stamp) >= value_bytes:
            return stamp[:value_bytes]
        return stamp + self._value_pad[: value_bytes - len(stamp)]

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def preload_operations(self) -> Iterator[Operation]:
        """The load phase: insert ``preload_keys`` distinct keys.

        Insertion order is shuffled (seeded) so the loaded tree has
        realistic overlap structure rather than a single sorted run.
        """
        count = min(self.spec.preload_keys, self.spec.key_space)
        if count == 0:
            return
        order = self._load_rng.permutation(self.spec.key_space)[:count]
        encode_key = self.encode_key
        make_value = self.make_value
        for index in order.tolist():
            yield Operation(OP_PUT, encode_key(index), make_value())

    def operations(self) -> Iterator[Operation]:
        """The measured phase: ``num_operations`` requests per the spec.

        Key-index and operation-kind draws are generated in vectorized
        blocks; the emitted stream is bit-identical to per-operation
        sampling because numpy's bulk draws consume the underlying bit
        stream exactly like the equivalent sequence of scalar draws
        (pinned against a per-operation loop by ``tests/test_workload_ycsb.py``'s
        ``test_blocked_stream_matches_per_operation_sampling``).
        """
        return self._operations_blocked(self._dist.sample_block)

    #: Key/operation draws generated per vectorized block.
    _GEN_BLOCK = 4096

    def _operations_blocked(self, sample_block) -> Iterator[Operation]:
        """Blocked generation: one vectorized key draw and one vectorized
        operation-kind draw per block (the two are independent RNGs)."""
        spec = self.spec
        encode_key = self.encode_key
        make_value = self.make_value
        random = self._op_rng.random
        write_ratio = spec.write_ratio
        scans = spec.query_type == "scan"
        scan_length = spec.scan_length
        block = self._GEN_BLOCK
        remaining = spec.num_operations
        # Operation's own __new__ is a Python-level wrapper of this call;
        # one tuple is built per generated request.
        new = tuple.__new__
        while remaining > 0:
            n = block if remaining > block else remaining
            remaining -= n
            indices = sample_block(n)
            draws = random(n).tolist()
            for index, draw in zip(indices, draws):
                key = encode_key(index)
                if draw < write_ratio:
                    yield new(Operation, (OP_PUT, key, make_value(), 0))
                elif scans:
                    yield new(Operation, (OP_SCAN, key, None, scan_length))
                else:
                    yield new(Operation, (OP_GET, key, None, 0))
