"""The compaction merge: pool the input windows, sort once, keep the newest.

Compaction inputs are immutable SSTables (or LDC slices of them) whose
records are strictly key-sorted with one version per key.  Each input is
a ``(keys, records, start, stop)`` window over a file's key index and
record list (:meth:`~repro.lsm.sstable.SSTable.columns_window`, or a
slice's cached index window).

The merge is the idiom :func:`~repro.lsm.iterators.merge_streams` uses on
the read side: concatenate ``records[start:stop]`` of every non-empty
window, sort the pool once, and build a dict keyed by user key.
``KVRecord`` tuples order by ``(key, seq)`` and sequence numbers are
store-unique, so the last record inserted per key is the newest version.
Timsort takes each window as a natural run and gallops through disjoint
stretches in C, so the cost is per window, not per record; a lone window
cannot collide with anything and is a pure slice copy.

The output is the ``(keys, records, sizes)`` columns that
:func:`~repro.lsm.builder.build_balanced_columns` cuts into files; sizes
are read off the records (``KVRecord.size``), never recomputed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Sequence, Tuple

#: Merged output columns: (keys, records, sizes).
MergedColumns = Tuple[List[bytes], List[tuple], List[int]]

#: One merge input: (keys, records, start, stop).
Window = Tuple[Sequence, Sequence, int, int]

_record_key = itemgetter(0)
_record_size = itemgetter(4)


def merge_windows(windows: Sequence[Window]) -> MergedColumns:
    """Merge windows, newest version per key, key-ascending.

    Tombstones are preserved (dropping them is the caller's decision).
    """
    live = [window for window in windows if window[2] < window[3]]
    if len(live) == 1:
        keys, records, start, stop = live[0]
        merged = records[start:stop]
        return keys[start:stop], merged, list(map(_record_size, merged))
    pooled: List[tuple] = []
    for _, records, start, stop in live:
        pooled += records[start:stop]
    pooled.sort()
    newest = dict(zip(map(_record_key, pooled), pooled))
    merged = list(newest.values())
    return list(newest), merged, list(map(_record_size, merged))
