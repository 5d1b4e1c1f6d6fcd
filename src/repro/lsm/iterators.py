"""The read-side merge: range scans over index windows, in rounds.

Everything a scan reads is already a sorted array: the memtable's key
list, an SSTable's key / record columns, a slice's cached ``[start,
stop)`` over its source's columns.  A scan therefore never iterates
records.  Each source is a *window* — the list ``[keys, records, pos,
stop, start, table]``, ``[pos, stop)`` still unread, ``start`` where the
scan entered it, ``records`` indexed like ``keys`` (for the memtable, the
dict the keys index), ``table`` the file its blocks belong to.  Windows
are grouped into *units* (a file then its slice links, in link order) and
units into *streams* ``[units, files, index]``: the units opened so far
(the last one is being read), and ``files[index:]`` still to open.  The
memtable and each Level-0 / tiered file are streams of one unit; a sorted
level is one stream that starts at the file responsible for the scan's
first key and opens the next file only when the open unit is used up
(LevelDB's concatenating iterator).  Responsibility ranges (Example 3.2)
tile the key space and linked records stay inside their carrier's range
(``VersionSet.check_invariants``), so a level's units are disjoint and
ordered.

:func:`merge_streams` proceeds in rounds.  A round picks a bound no stream
can hold an unopened key under, cuts every window at it with one bisect,
pools the cut slices deepest stream first, sorts the pool (a handful of
sorted runs: Timsort merges them in C) and keeps the newest version per
key through a dict — the pooled merge of
:mod:`repro.lsm.compaction.columnar`, which is what compaction runs
through.  ``DB.scan`` and ``DB.logical_items`` are the two callers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from .record import KIND_DELETE


def unit_windows(table, lo: bytes) -> List[list]:
    """The windows of ``table``'s unit from ``lo`` on, empty ones included."""
    keys = table._keys
    pos = bisect_left(keys, lo)
    windows = [[keys, table._records, pos, len(keys), pos, table]]
    for piece in table.slice_links:
        source = piece.source
        keys = source._keys
        stop = piece._stop
        pos = bisect_left(keys, lo, piece._start, stop)
        windows.append([keys, source._records, pos, stop, pos, source])
    return windows


def _refill(stream: list, lo: bytes) -> bool:
    """Open units until the open one has an unread record; False at the end."""
    units, files, _ = stream
    while True:
        if units:
            for window in units[-1]:
                if window[2] < window[3]:
                    return True
        if stream[2] == len(files):
            return False
        units.append(unit_windows(files[stream[2]], lo))
        stream[2] += 1


def merge_streams(
    streams: List[list], lo: bytes, count: int
) -> Tuple[List[Tuple[bytes, bytes]], int, Optional[bytes]]:
    """The first ``count`` live pairs at or after ``lo``, newest version per key.

    Returns ``(pairs, consumed, last_key)``: ``consumed`` counts the
    distinct keys merged up to and including the last pair returned
    (tombstones shadow older versions, are consumed and not returned);
    ``last_key`` is None when the streams ran out before ``count``.  The
    units each stream had to open are left in ``streams``.  That set is
    what a record-at-a-time merge that refills the winning source before
    it yields would have opened (the ``retired_oracles/scan`` pin of
    ``tests/test_retired_oracles.py`` holds it for a corpus of scans): a
    level's next file is reached once no key of its open unit lies past
    ``last_key``, even when the scan ends right there — unless a single
    stream held records to begin with, which is read lazily.
    """
    # Deepest stream first: the bottom level usually holds most of a
    # round's pool, and as the pool's first run it is the one Timsort
    # extends instead of inserting into.  Records never tie on (key, seq),
    # so the sorted pool is the same in any order.
    live = [stream for stream in reversed(streams) if _refill(stream, lo)]
    lazy = len(live) == 1
    pairs: List[Tuple[bytes, bytes]] = []
    consumed = 0
    remaining = count
    while live:
        # Any bound at or under a stream's frontier — the largest last key
        # of its open windows; later units hold only larger keys — leaves
        # no key of that stream under it unseen.  Capping each window at
        # ``remaining`` records keeps the pool near what is still wanted;
        # the stream attaining the minimum advances, so rounds terminate.
        bound = None
        for units, _, _ in live:
            frontier = None
            for keys, _, pos, stop, _, _ in units[-1]:
                if pos < stop:
                    reach = pos + remaining
                    key = keys[(reach if reach < stop else stop) - 1]
                    if frontier is None or key > frontier:
                        frontier = key
            if bound is None or frontier < bound:
                bound = frontier
        pooled: list = []
        pool = pooled.extend
        used_up = []
        for stream in live:
            unread = False
            for window in stream[0][-1]:
                keys, records, pos, stop, _, _ = window
                if pos < stop:
                    cut = bisect_right(keys, bound, pos, stop)
                    if cut > pos:
                        window[2] = cut
                        if type(records) is dict:  # the memtable
                            pool(map(records.__getitem__, keys[pos:cut]))
                        else:
                            pool(records[pos:cut])
                    if cut < stop:
                        unread = True
            if not unread:
                used_up.append(stream)
        # Records order by (key, seq): the last insertion per key is the
        # newest version, and the dict keeps keys ascending.
        pooled.sort()
        newest = {record[0]: record for record in pooled}
        found = [
            (record[0], record[3])
            for record in newest.values()
            if record[2] != KIND_DELETE
        ]
        if len(found) >= remaining:
            pairs += found[:remaining]
            last_key = pairs[-1][0]
            consumed += bisect_right(list(newest), last_key)
            break
        pairs += found
        remaining -= len(found)
        consumed += len(newest)
        for stream in used_up:
            if not _refill(stream, lo):
                live.remove(stream)
    else:
        return pairs, consumed, None
    if not lazy:
        for stream in streams:
            units, files, index = stream
            if index < len(files):
                for keys, _, _, stop, start, _ in units[-1]:
                    if start < stop and keys[stop - 1] > last_key:
                        break
                else:
                    units.append(unit_windows(files[index], lo))
                    stream[2] += 1
    return pairs, consumed, last_key
