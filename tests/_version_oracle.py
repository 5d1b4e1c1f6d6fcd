"""The linear level queries, kept as a test oracle.

Until the bisect rewrite every per-round query against a sorted level —
where a new file goes, which files overlap a range, which file the
round-robin pointer selects, which lower-level files a link source is
sliced over — scanned the whole level.  Those versions cannot miss a
file they should have seen, so they live on here, verbatim, as the
reference ``VersionSet`` and ``LDCLinkMergeMovement._slice_plan`` are
compared against (``tests/test_version_equivalence.py``): same results,
same order, same errors.

Each function takes the :class:`~repro.lsm.version.VersionSet` it would
have been a method of and reads ``version.levels`` only.
"""

from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.errors import EngineError
from repro.lsm.keys import key_successor, ranges_overlap
from repro.lsm.sstable import SSTable


def linear_insert_index(version, level: int, table: SSTable) -> int:
    """Where the old ``add_file`` inserted ``table`` in a sorted level.

    Raises the same :class:`EngineError`, naming the same neighbour, when
    ``table`` overlaps a resident file.
    """
    files = version.levels[level]
    index = bisect_left([f.min_key for f in files], table.min_key)
    for neighbour in (files[index - 1] if index > 0 else None,
                      files[index] if index < len(files) else None):
        if neighbour is not None and ranges_overlap(
            table.min_key,
            key_successor(table.max_key),
            neighbour.min_key,
            key_successor(neighbour.max_key),
        ):
            raise EngineError(
                f"file {table.file_id} overlaps file {neighbour.file_id} "
                f"in level {level}"
            )
    return index


def linear_remove_index(version, level: int, table: SSTable) -> int:
    """The index the old ``remove_file`` deleted (``list.index``)."""
    try:
        return version.levels[level].index(table)
    except ValueError:
        raise EngineError(
            f"file {table.file_id} is not present in level {level}"
        ) from None


def linear_overlapping(
    version, level: int, lo: Optional[bytes], hi: Optional[bytes]
) -> List[SSTable]:
    """The old ``VersionSet.overlapping``: filter every file of the level."""
    result = [
        table
        for table in version.levels[level]
        if ranges_overlap(
            table.min_key, key_successor(table.max_key), lo, hi
        )
    ]
    if level == 0 or not version.sorted_levels:
        result.sort(key=lambda table: table.file_id)
    return result


def linear_pick_file_round_robin(version, level: int) -> SSTable:
    """The old ``VersionSet.pick_file_round_robin``: first file past the pointer."""
    files = version.levels[level]
    if not files:
        raise EngineError(f"level {level} has no file to compact")
    if level == 0:
        return min(files, key=lambda table: table.file_id)
    pointer = version.compact_pointer.get(level)
    if pointer is not None:
        for table in files:
            if table.max_key > pointer:
                return table
    return files[0]


def linear_slice_plan(
    version, source: SSTable, target_level: int
) -> List[Tuple[SSTable, Optional[bytes], Optional[bytes]]]:
    """The old ``_slice_plan``: two bisects against every file of the level."""
    files = version.files(target_level)
    plan: List[Tuple[SSTable, Optional[bytes], Optional[bytes]]] = []
    previous_hi: Optional[bytes] = None
    for index, target in enumerate(files):
        lo = previous_hi
        is_last = index == len(files) - 1
        hi = None if is_last else key_successor(target.max_key)
        previous_hi = hi
        if source.count_in_range(lo, hi) > 0:
            plan.append((target, lo, hi))
    return plan
