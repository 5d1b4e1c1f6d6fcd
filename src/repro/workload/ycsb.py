"""YCSB-like operation stream generator.

Turns a :class:`~repro.workload.spec.WorkloadSpec` into a deterministic
stream of operations (:class:`Operation`).  The paper drives LevelDB with
the YCSB benchmark suite (§IV-A); this module reproduces the pieces the
paper uses — random insertions mixed with point lookups or 100-record
scans under uniform/Zipf key choice — and additionally offers the six
classic YCSB core workloads (A–F) for the example applications.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

import numpy as np

from .keydist import LatestKeys, make_distribution
from .spec import WorkloadSpec
from ..errors import WorkloadError

OP_PUT = "put"
OP_GET = "get"
OP_SCAN = "scan"
OP_DELETE = "delete"
OP_RMW = "rmw"  # read-modify-write (YCSB F)


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

        Key-index draws (and, when the mix permits, operation-kind draws)
        are generated in vectorized blocks; the emitted stream is
        bit-identical to per-operation sampling because numpy's bulk
        draws consume the underlying bit stream exactly like the
        equivalent sequence of scalar draws (pinned by the workload
        equivalence tests).  Distributions without a ``sample_block``
        (the feedback-coupled "latest") fall back to the scalar loop.
        """
        sample_block = getattr(self._dist, "sample_block", None)
        if sample_block is None:
            return self._operations_scalar()
        return self._operations_blocked(sample_block)

    def _operations_scalar(self) -> Iterator[Operation]:
        """Reference per-operation generation (and the "latest" path)."""
        spec = self.spec
        sample = self._dist.sample
        encode_key = self.encode_key
        make_value = self.make_value
        random = self._op_rng.random
        write_ratio = spec.write_ratio
        delete_ratio = spec.delete_ratio
        scans = spec.query_type == "scan"
        scan_length = spec.scan_length
        latest = self._dist if isinstance(self._dist, LatestKeys) else None
        for _ in range(spec.num_operations):
            key = encode_key(sample())
            if random() < write_ratio:
                if delete_ratio and random() < delete_ratio:
                    yield Operation(OP_DELETE, key)
                else:
                    yield Operation(OP_PUT, key, make_value())
            elif scans:
                yield Operation(OP_SCAN, key, scan_length=scan_length)
            else:
                yield Operation(OP_GET, key)
            if latest is not None:
                latest.population = min(spec.key_space, latest.population + 1)

    #: Key/operation draws generated per vectorized block.
    _GEN_BLOCK = 4096

    def _operations_blocked(self, sample_block) -> Iterator[Operation]:
        """Blocked generation for feedback-free distributions.

        Key indices always batch (the key stream is an independent RNG).
        Operation-kind draws batch only when ``delete_ratio == 0``: a
        non-zero delete ratio consumes a *conditional* second draw per
        write, so the number of op-stream draws depends on earlier
        outcomes and the scalar loop is kept for that stream.
        """
        spec = self.spec
        encode_key = self.encode_key
        make_value = self.make_value
        op_rng = self._op_rng
        random = op_rng.random
        write_ratio = spec.write_ratio
        delete_ratio = spec.delete_ratio
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
            if not delete_ratio:
                draws = random(n).tolist()
                for index, draw in zip(indices, draws):
                    key = encode_key(index)
                    if draw < write_ratio:
                        yield new(Operation, (OP_PUT, key, make_value(), 0))
                    elif scans:
                        yield new(Operation, (OP_SCAN, key, None, scan_length))
                    else:
                        yield new(Operation, (OP_GET, key, None, 0))
            else:
                for index in indices:
                    key = encode_key(index)
                    if random() < write_ratio:
                        if random() < delete_ratio:
                            yield new(Operation, (OP_DELETE, key, None, 0))
                        else:
                            yield new(Operation, (OP_PUT, key, make_value(), 0))
                    elif scans:
                        yield new(Operation, (OP_SCAN, key, None, scan_length))
                    else:
                        yield new(Operation, (OP_GET, key, None, 0))


# ----------------------------------------------------------------------
# Classic YCSB core workloads (A-F) — extensions beyond the paper's mixes,
# used by the example applications.
# ----------------------------------------------------------------------
def ycsb_a(**overrides: object) -> WorkloadSpec:
    """YCSB-A: 50% reads / 50% updates, Zipfian."""
    defaults = dict(
        num_operations=100_000,
        key_space=50_000,
        preload_keys=50_000,
        distribution="zipf",
        zipf_constant=0.99,
    )
    defaults.update(overrides)
    return WorkloadSpec(name="YCSB-A", write_ratio=0.5, **defaults)  # type: ignore[arg-type]


def ycsb_b(**overrides: object) -> WorkloadSpec:
    """YCSB-B: 95% reads / 5% updates, Zipfian."""
    defaults = dict(
        num_operations=100_000,
        key_space=50_000,
        preload_keys=50_000,
        distribution="zipf",
        zipf_constant=0.99,
    )
    defaults.update(overrides)
    return WorkloadSpec(name="YCSB-B", write_ratio=0.05, **defaults)  # type: ignore[arg-type]


def ycsb_c(**overrides: object) -> WorkloadSpec:
    """YCSB-C: 100% reads, Zipfian."""
    defaults = dict(
        num_operations=100_000,
        key_space=50_000,
        preload_keys=50_000,
        distribution="zipf",
        zipf_constant=0.99,
    )
    defaults.update(overrides)
    return WorkloadSpec(name="YCSB-C", write_ratio=0.0, **defaults)  # type: ignore[arg-type]


def ycsb_d(**overrides: object) -> WorkloadSpec:
    """YCSB-D: 95% reads of recently inserted keys / 5% inserts."""
    defaults = dict(
        num_operations=100_000,
        key_space=50_000,
        preload_keys=25_000,
        distribution="latest",
        zipf_constant=0.99,
    )
    defaults.update(overrides)
    return WorkloadSpec(name="YCSB-D", write_ratio=0.05, **defaults)  # type: ignore[arg-type]


def ycsb_e(**overrides: object) -> WorkloadSpec:
    """YCSB-E: 95% short scans / 5% inserts, Zipfian."""
    defaults = dict(
        num_operations=50_000,
        key_space=50_000,
        preload_keys=50_000,
        distribution="zipf",
        zipf_constant=0.99,
        scan_length=50,
    )
    defaults.update(overrides)
    return WorkloadSpec(
        name="YCSB-E", write_ratio=0.05, query_type="scan", **defaults  # type: ignore[arg-type]
    )


def ycsb_f(**overrides: object) -> WorkloadSpec:
    """YCSB-F: 50% reads / 50% read-modify-writes, Zipfian.

    The runner executes a read-modify-write as a get followed by a put of
    the same key; the spec models it as a 50% write ratio.
    """
    defaults = dict(
        num_operations=100_000,
        key_space=50_000,
        preload_keys=50_000,
        distribution="zipf",
        zipf_constant=0.99,
    )
    defaults.update(overrides)
    return WorkloadSpec(name="YCSB-F", write_ratio=0.5, **defaults)  # type: ignore[arg-type]
