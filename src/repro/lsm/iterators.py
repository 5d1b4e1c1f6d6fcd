"""K-way merge machinery for range scans.

A scan merges key-sorted record streams — the memtable, every overlapping
Level-0 (or tiered) file, one :func:`level_cursor` per sorted level —
keeping the newest version of each user key; ``DB.logical_items`` uses the
same merge.  Compaction does *not* run through here: it merges column
windows (:func:`repro.lsm.compaction.columnar.merge_windows`).

The per-record loop is a scan's hot path, so a single live source
degenerates to plain iteration (no heap), and the multi-way path drives
the heap through cached bound ``__next__`` methods with ``heapreplace``
(one sift) instead of push/pop pairs (two).
"""

from __future__ import annotations

import heapq
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Sequence

from .record import KVRecord


def merge_records(sources: List[Iterable[KVRecord]]) -> Iterator[KVRecord]:
    """Merge key-sorted streams, yielding the newest record per user key.

    Each source must be internally sorted by key with at most one record
    per key.  Across sources, the record with the highest sequence number
    wins (ties — impossible for distinct engine mutations — fall to the
    earliest source).  Tombstones are *not* filtered — callers decide
    whether deletes may be dropped (only at the bottom of the tree) or
    must be preserved.
    """
    iterators: List[Iterator[KVRecord]] = []
    heap: List[tuple[bytes, int, int, KVRecord]] = []
    for source in sources:
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            heap.append((first.key, -first.seq, len(iterators), first))
            iterators.append(iterator)

    if not heap:
        return
    if len(heap) == 1:
        # Single live source: records are already unique-keyed and sorted.
        yield heap[0][3]
        yield from iterators[0]
        return

    heapq.heapify(heap)
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    nexts = [iterator.__next__ for iterator in iterators]
    while heap:
        key, _, index, record = heap[0]
        try:
            nxt = nexts[index]()
        except StopIteration:
            heappop(heap)
        else:
            heapreplace(heap, (nxt.key, -nxt.seq, index, nxt))
        # Drain older versions of the same key from other sources.
        while heap and heap[0][0] == key:
            other = heap[0][2]
            try:
                refill = nexts[other]()
            except StopIteration:
                heappop(heap)
            else:
                heapreplace(heap, (refill.key, -refill.seq, other, refill))
        yield record


def table_records(table, lo: Optional[bytes]) -> Iterable[KVRecord]:
    """``table``'s records from ``lo`` on, merged with its linked slices.

    An unlinked file (any file under UDC) is just its own zero-copy view.
    """
    links = table.slice_links
    if not links:
        return table.records_in_range(lo, None)
    sources = [table.records_in_range(lo, None)]
    sources.extend(piece.records_in_range(lo, None) for piece in links)
    return merge_records(sources)


def level_cursor(
    files: Sequence, first: int, lo: bytes, opened: List
) -> Iterator[KVRecord]:
    """One lazy source for a sorted level (LevelDB's concatenating iterator).

    Starts at ``files[first]``, the file responsible for ``lo``.  The unit
    of concatenation is a file plus its slice links: responsibility ranges
    (Example 3.2) tile the key space and linked records stay inside their
    carrier's range (``VersionSet.check_invariants``), so units are disjoint
    and ordered.  Each unit the cursor starts reading is appended to
    ``opened`` — exactly the files the device is charged for.
    """

    def units() -> Iterator[Iterable[KVRecord]]:
        for table in islice(files, first, None):
            opened.append(table)
            yield table_records(table, lo)

    # chain pulls the next unit only once the current one is exhausted,
    # and hands records through without a Python frame per record.
    return chain.from_iterable(units())


def live_records(merged: Iterable[KVRecord]) -> Iterator[KVRecord]:
    """Filter a newest-per-key stream down to visible (non-deleted) records."""
    for record in merged:
        if not record.is_tombstone:
            yield record
