"""Record types: user keys, sequence numbers, and tombstones.

Every mutation (put or delete) receives a globally increasing *sequence
number*.  Compactions — and in particular LDC's out-of-order merges, which
may consume slices frozen at different times — resolve duplicate user keys
by keeping the record with the highest sequence number.  Deletes are
*tombstones*: records with ``kind == KIND_DELETE`` that shadow older puts
until a compaction into the bottom-most data drops them.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple

from ..errors import EngineError

# Record kinds.  Values chosen so that a tombstone is falsy-looking but the
# comparisons below never rely on that; explicit checks only.
KIND_PUT = 1
KIND_DELETE = 0

#: Fixed per-record metadata overhead used when estimating on-device size:
#: 8-byte sequence number + 1-byte kind + two 2-byte length prefixes.
RECORD_OVERHEAD_BYTES = 13


class KVRecord(NamedTuple):
    """One versioned key-value record.

    Sorting a list of ``KVRecord`` tuples orders by ``(key, seq, ...)``,
    and both merges (compaction's ``merge_windows``, the read side's
    ``merge_streams``) rely on that tuple order: sequence numbers are
    store-unique, so two records never tie on ``(key, seq)`` and the
    later fields are never compared.

    ``size`` is derived — ``len(key) + len(value) +
    RECORD_OVERHEAD_BYTES``, fixed when :func:`put_record` /
    :func:`delete_record` create the record — and every byte total in the
    engine (WAL, memtable, file prefix sums, merge output) reads it
    instead of recomputing; ``DB.check_invariants`` re-derives it.
    """

    key: bytes
    seq: int
    kind: int
    value: bytes
    size: int

    @property
    def is_tombstone(self) -> bool:
        return self.kind == KIND_DELETE

    @property
    def encoded_size(self) -> int:
        """Approximate on-device footprint of this record in bytes."""
        return self.size


#: Records are built through ``tuple.__new__`` directly: a namedtuple's
#: own ``__new__`` is a Python-level function wrapping exactly this call,
#: and one record is built per write.
_new_record = tuple.__new__


def put_record(key: bytes, value: bytes, seq: int) -> KVRecord:
    """Build a PUT record."""
    return _new_record(
        KVRecord,
        (key, seq, KIND_PUT, value, len(key) + len(value) + RECORD_OVERHEAD_BYTES),
    )


def delete_record(key: bytes, seq: int) -> KVRecord:
    """Build a DELETE tombstone record."""
    return _new_record(
        KVRecord, (key, seq, KIND_DELETE, b"", len(key) + RECORD_OVERHEAD_BYTES)
    )


def check_record_sizes(records: Iterable[KVRecord]) -> List[int]:
    """The records' sizes, each verified against its key and value.

    Sizes are trusted everywhere else; this is the invariant check's
    re-derivation (``DB.check_invariants``).
    """
    sizes = []
    for record in records:
        encoded = len(record.key) + len(record.value) + RECORD_OVERHEAD_BYTES
        if record.size != encoded:
            raise EngineError(
                f"record {record.key!r}@{record.seq} carries size "
                f"{record.size}, its key and value encode to {encoded}"
            )
        sizes.append(encoded)
    return sizes
