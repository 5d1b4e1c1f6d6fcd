"""The in-memory write buffer (Definition 2.2).

All mutations land here first; when :attr:`MemTable.approximate_bytes`
reaches the configured capacity the engine flushes the contents to a
Level-0 SSTable.  The memtable keeps only the newest record per user key —
older in-memtable versions are unobservable in this engine (reads serve the
latest version; ``ShardedDB.snapshot()`` pins sequence numbers as a cut
marker, not a read view), so overwriting in place is both correct and fast.

Storage layout
--------------
Earlier versions indexed records with a skip list.  A skip list pays
per-node object and pointer overhead on every insert to keep the keys
*always* sorted — but this engine only needs sorted order at flush, scan
and recovery time, never on the put/get fast path.  The buffer is
therefore array-backed: a hash index (``dict``) from key to the newest
record, plus a sorted key array rebuilt lazily.  Inserts are amortised
O(1); the first ordered read after a batch of inserts sorts once
(Timsort on the mostly-sorted key array is near-linear), and point reads
never sort at all.

The simulated cost model is unaffected: the clock charges the configured
``memtable_insert_us`` / ``memtable_lookup_us`` regardless of the host
data structure, and iteration order (ascending by key, newest record per
key) is identical to the skip list's.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional

from .record import KVRecord, check_record_sizes
from ..errors import EngineError


class MemTable:
    """Sorted in-memory buffer of the newest record per key."""

    __slots__ = ("_records", "_keys", "_dirty", "_bytes")

    def __init__(self) -> None:
        self._records: dict = {}
        self._keys: List[bytes] = []
        self._dirty = False
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def approximate_bytes(self) -> int:
        """Encoded size of the buffered records (flush trigger input)."""
        return self._bytes

    def add(self, record: KVRecord) -> None:
        """Insert a record, replacing any older version of the same key."""
        records = self._records
        key = record[0]
        previous = records.get(key)
        records[key] = record
        if previous is None:
            self._dirty = True
            self._bytes += record[4]
        else:
            self._bytes += record[4] - previous[4]

    def add_sorted_batch(self, records: Iterable[KVRecord]) -> int:
        """Bulk-load records whose keys strictly increase past the tail.

        Recovery fast path: appends keys directly onto the sorted array
        (no re-sort needed) when the buffer's order is clean.  Keys must
        be strictly increasing and all greater than any key already
        buffered — the same contract the skip list's tail-link path had.
        """
        index = self._records
        in_order = not self._dirty
        keys = self._keys
        push = keys.append
        added = 0
        total = 0
        for record in records:
            key = record[0]
            index[key] = record
            if in_order:
                push(key)
            total += record[4]
            added += 1
        if not in_order:
            self._dirty = True
        self._bytes += total
        return added

    def get(self, key: bytes) -> Optional[KVRecord]:
        """Return the newest buffered record for ``key`` (may be tombstone)."""
        return self._records.get(key)

    def _sorted_keys(self) -> List[bytes]:
        if self._dirty:
            self._keys = sorted(self._records)
            self._dirty = False
        return self._keys

    def sorted_columns(self) -> tuple:
        """``(keys, records)`` parallel columns, key-ascending.

        The columnar flush path: the sorted key array already exists (or
        is sorted once here), so the builder and the SSTable constructor
        can reuse it instead of re-extracting keys record by record.  The
        returned key list is shared with the memtable — callers must
        treat it as immutable (flush discards the memtable right after).
        """
        records = self._records
        keys = self._sorted_keys()
        return keys, [records[key] for key in keys]

    def __iter__(self) -> Iterator[KVRecord]:
        records = self._records
        for key in self._sorted_keys():
            yield records[key]

    def window_from(self, key: bytes) -> list:
        """The records at or after ``key`` as a scan merge window.

        ``[keys, records, pos, stop, start, None]`` with ``records`` the
        dict the sorted ``keys`` index (see :mod:`repro.lsm.iterators`).
        """
        keys = self._sorted_keys()
        pos = bisect_left(keys, key)
        return [keys, self._records, pos, len(keys), pos, None]

    def is_empty(self) -> bool:
        return not self._records

    def check_invariants(self) -> None:
        """Re-derive the byte total the flush trigger trusts."""
        total = sum(check_record_sizes(self._records.values()))
        if self._bytes != total:
            raise EngineError(
                f"memtable counts {self._bytes} bytes, its records hold {total}"
            )
