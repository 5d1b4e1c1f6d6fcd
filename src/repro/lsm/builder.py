"""Cut sorted key / record columns into size-capped SSTables.

Flushes (memtable -> Level 0) and compaction merges (§II-A Definition 2.4
/ LDC's merge phase) both end in key-sorted, deduplicated columns, which
these functions cut into output files near ``sstable_target_bytes`` — the
role ``TableBuilder`` plays in LevelDB.

File cuts read each record's ``size`` (fixed when the record was created);
nothing here recomputes one.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter
from typing import Callable, List

from .config import LSMConfig
from .record import KVRecord
from .sstable import SSTable

_record_size = itemgetter(4)


def build_greedy_columns(
    keys: List[bytes],
    records: List[KVRecord],
    config: LSMConfig,
    next_file_id: Callable[[], int],
) -> List[SSTable]:
    """Cut a flushed memtable's sorted columns greedily at the target size.

    A file closes with the first record that brings it to
    ``sstable_target_bytes``; the remainder is the last file.  The cut
    points come from one bisect per file over the size prefix, and each
    file is constructed from column slices.  The memtable guarantees
    sorted unique keys, so nothing is re-validated.
    """
    sizes = list(map(_record_size, records))
    prefix = list(accumulate(sizes, initial=0))
    target = config.sstable_target_bytes
    outputs: List[SSTable] = []
    n = len(records)
    start = 0
    while start < n:
        stop = bisect_left(prefix, prefix[start] + target, start + 1)
        if stop > n:
            stop = n
        outputs.append(
            SSTable.from_records(
                next_file_id(),
                records[start:stop],
                config,
                presorted=True,
                sizes=sizes[start:stop],
                keys=keys[start:stop],
            )
        )
        start = stop
    return outputs


def build_balanced_columns(
    keys: List[bytes],
    records: List[KVRecord],
    sizes: List[int],
    config: LSMConfig,
    next_file_id: Callable[[], int],
) -> List[SSTable]:
    """Build SSTables of near-equal size from merged columns.

    The flush cut (:func:`build_greedy_columns`) stops at the target size,
    which leaves a fragment tail file (e.g. 1.2x target -> one full file
    plus a 0.2x sliver).  Compaction outputs are materialised anyway, so
    we can do better: pick the file count that keeps every file close to
    the target (``nfiles = round(total / target)``) and split the byte
    total evenly, cutting greedily once a chunk reaches ``total / nfiles``
    while earlier than the last file.  Persistent slivers matter for LDC especially —
    fragment files accumulate their own SliceLinks and multiply.

    The cut points come from one bisect per output file over the size
    prefix, and each output SSTable is constructed from column slices —
    no per-record work at all.  ``per_file`` is a float; record
    sizes are integers at least ``1/nfiles`` of a byte away from it after
    the division, so comparing against ``prefix[start] + per_file`` is
    exact despite the float add.
    """
    if not records:
        return []
    prefix = list(accumulate(sizes, initial=0))
    total = prefix[-1]
    nfiles = max(1, round(total / config.sstable_target_bytes))
    per_file = total / nfiles
    outputs: List[SSTable] = []
    n = len(records)
    last_cut = nfiles - 1
    start = 0
    emitted = 0
    while start < n:
        if emitted < last_cut:
            stop = bisect_left(prefix, prefix[start] + per_file, start + 1)
            if stop > n:
                stop = n
        else:
            stop = n
        outputs.append(
            SSTable.from_records(
                next_file_id(),
                records[start:stop],
                config,
                presorted=True,
                sizes=sizes[start:stop],
                keys=keys[start:stop],
            )
        )
        start = stop
        emitted += 1
    return outputs
