"""The galloping heap merge, kept as a test oracle.

Until compaction merges became one pooled sort
(:func:`repro.lsm.compaction.columnar.merge_windows`), a merge took
``(keys, records, seqs, sizes, start, stop)`` windows over six-part files,
kept a heap of stream heads and *galloped*: while the smallest stream's
keys stayed below every other head, one ``bisect`` found the run and
C-level ``extend`` copied it into the four output columns; equal head keys
were resolved by sequence number.  After ``_ADAPT_CHECK_ROUNDS`` heap
rounds it measured the realised run length and, when the streams were
finely interleaved, finished with ``_pooled_remainder`` — pool, sort,
dict, and a ``len(key) + len(value) + RECORD_OVERHEAD_BYTES`` recompute
per survivor.

Both functions live on here verbatim as the reference
``tests/test_columnar_merge.py`` pair-runs the pooled merge against (same
keys, records and sizes; the oracle's seq column is the records' own
``seq``), and ``tests/test_host_scaling.py`` counts calls against.
``oracle_window`` widens a current four-part window into the six-part one
this merge reads.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter
from typing import List, Sequence, Tuple

from repro.lsm.record import RECORD_OVERHEAD_BYTES

#: Merged output columns: (keys, records, seqs, sizes).
MergedColumns = Tuple[List[bytes], List[tuple], List[int], List[int]]

#: One merge input: (keys, records, seqs, sizes, start, stop).
Window = Tuple[Sequence, Sequence, Sequence, Sequence, int, int]

_record_key = itemgetter(0)
_record_seq = itemgetter(1)

#: Heap rounds to sample before judging the interleaving, and the
#: minimum emitted-records-per-round below which the pooled sort wins.
_ADAPT_CHECK_ROUNDS = 24
_ADAPT_MIN_RUN = 4


def merge_windows(windows: Sequence[Window]) -> MergedColumns:
    """Merge columnar windows, newest version per key, key-ascending.

    Equivalent to pooling every window's records, sorting by ``(key,
    seq)`` and keeping the highest-sequence record per key — sequence
    numbers are store-unique, so the winner is well defined.  Tombstones
    are preserved (dropping them is the caller's decision).
    """
    sources: List[list] = []
    heap: List[Tuple[bytes, int]] = []
    for keys, records, seqs, sizes, start, stop in windows:
        if start < stop:
            heap.append((keys[start], len(sources)))
            sources.append([keys, records, seqs, sizes, start, stop])

    out_keys: List[bytes] = []
    out_records: List[tuple] = []
    out_seqs: List[int] = []
    out_sizes: List[int] = []
    if not heap:
        return out_keys, out_records, out_seqs, out_sizes

    extend_keys = out_keys.extend
    extend_records = out_records.extend
    extend_seqs = out_seqs.extend
    extend_sizes = out_sizes.extend
    append_key = out_keys.append
    append_record = out_records.append
    append_seq = out_seqs.append
    append_size = out_sizes.append

    heapify(heap)
    rounds = 0
    check_at = _ADAPT_CHECK_ROUNDS
    while heap:
        if len(heap) == 1:
            # Last live stream: its remaining run cannot collide with
            # anything — bulk-copy the tail and finish.
            keys, records, seqs, sizes, pos, stop = sources[heap[0][1]]
            extend_keys(keys[pos:stop])
            extend_records(records[pos:stop])
            extend_seqs(seqs[pos:stop])
            extend_sizes(sizes[pos:stop])
            break
        rounds += 1
        if rounds == check_at:
            if len(out_keys) < rounds * _ADAPT_MIN_RUN:
                # Finely interleaved streams: galloping degenerates to
                # record-at-a-time heap churn.  Hand the remainder to the
                # C-level pooled sort — every remaining key is strictly
                # greater than everything emitted so far.
                _pooled_remainder(
                    sources, heap, extend_keys, extend_records,
                    extend_seqs, extend_sizes,
                )
                break
            check_at = 0  # committed to galloping; never re-check
        head_key, index = heap[0]
        # The second-smallest head key bounds the current stream's safe
        # run; in a binary heap it is one of the root's two children.
        if len(heap) == 2:
            boundary = heap[1][0]
        else:
            left = heap[1][0]
            right = heap[2][0]
            boundary = left if left <= right else right
        source = sources[index]
        keys, records, seqs, sizes, pos, stop = source
        if head_key != boundary:
            # Every key in [pos, cut) is < boundary, hence unique to this
            # stream: one bisect finds the run, C-level copies emit it.
            cut = bisect_left(keys, boundary, pos + 1, stop)
            if cut - pos == 1:
                append_key(head_key)
                append_record(records[pos])
                append_seq(seqs[pos])
                append_size(sizes[pos])
            else:
                extend_keys(keys[pos:cut])
                extend_records(records[pos:cut])
                extend_seqs(seqs[pos:cut])
                extend_sizes(sizes[pos:cut])
            if cut < stop:
                source[4] = cut
                heapreplace(heap, (keys[cut], index))
            else:
                heappop(heap)
            continue
        # Run boundary with a key collision: two or more streams hold the
        # same head key.  The highest sequence number is the newest
        # version and survives; every tied stream advances one record.
        tied = [heappop(heap)]
        while heap and heap[0][0] == head_key:
            tied.append(heappop(heap))
        best = None
        best_seq = -1
        for _, tied_index in tied:
            tied_source = sources[tied_index]
            tied_seq = tied_source[2][tied_source[4]]
            if tied_seq > best_seq:
                best_seq = tied_seq
                best = tied_source
        best_pos = best[4]
        append_key(head_key)
        append_record(best[1][best_pos])
        append_seq(best_seq)
        append_size(best[3][best_pos])
        for _, tied_index in tied:
            tied_source = sources[tied_index]
            advanced = tied_source[4] + 1
            if advanced < tied_source[5]:
                tied_source[4] = advanced
                heappush(heap, (tied_source[0][advanced], tied_index))
    return out_keys, out_records, out_seqs, out_sizes


def _pooled_remainder(
    sources, heap, extend_keys, extend_records, extend_seqs, extend_sizes
):
    """Finish a merge with the legacy pooled sort, emitting columns.

    Pools the unconsumed ``[pos, stop)`` tail of every stream still on
    the heap, sorts once (``KVRecord`` tuples order by ``(key, seq)``)
    and deduplicates through a dict — last insertion per key wins, which
    in ascending ``(key, seq)`` order is the highest sequence number.
    The sort and the dict run at C speed; only the output-side column
    extraction touches Python per record, and only for survivors.
    """
    pooled: List[tuple] = []
    pool = pooled.extend
    for _, index in heap:
        _, records, _, _, pos, stop = sources[index]
        pool(records[pos:stop])
    pooled.sort()
    newest = {record[0]: record for record in pooled}
    merged = list(newest.values())
    extend_records(merged)
    extend_keys(map(_record_key, merged))
    extend_seqs(map(_record_seq, merged))
    extend_sizes(
        [
            len(record[0]) + len(record[3]) + RECORD_OVERHEAD_BYTES
            for record in merged
        ]
    )


def oracle_window(window) -> Window:
    """A ``(keys, records, start, stop)`` window with seq/size columns."""
    keys, records, start, stop = window
    return (
        keys,
        records,
        [record.seq for record in records],
        [record.size for record in records],
        start,
        stop,
    )
