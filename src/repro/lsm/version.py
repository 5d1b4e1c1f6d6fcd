"""The version set: which SSTables live in which level.

This is the manifest of the LSM-tree (Definition 2.1): Level 0 holds the
newly flushed, mutually overlapping files; levels 1..N hold sorted runs of
non-overlapping files.  Compaction policies query it for overlap sets and
level scores and mutate it through :meth:`add_file` / :meth:`remove_file`,
which enforce the structural invariants.

Level sizes include LDC *linked bytes*: once an upper-level file is frozen
and its slices linked onto lower-level files, its data logically belongs to
the lower level (§III-A), so scoring must see it there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional

from .config import LSMConfig
from .sstable import SSTable
from ..errors import EngineError


class VersionSet:
    """Mutable mapping of levels to SSTables, with invariant checking."""

    def __init__(self, config: LSMConfig, *, sorted_levels: bool = True) -> None:
        self._config = config
        #: When True (leveled/LDC), levels >= 1 hold disjoint sorted files.
        #: When False (size-tiered), every level behaves like Level 0 and
        #: holds overlapping runs; lookups must check files newest-first.
        self.sorted_levels = sorted_levels
        self.levels: List[List[SSTable]] = [[] for _ in range(config.max_levels)]
        self._level_of: Dict[int, int] = {}
        # Incrementally maintained byte counters per level: own file data
        # and LDC linked-slice bytes.  These make compaction scoring O(1)
        # per level instead of a re-sum over every file.
        self._level_bytes: List[int] = [0] * config.max_levels
        self._level_linked_bytes: List[int] = [0] * config.max_levels
        # Capacity schedule and L0 trigger, cached: level_score and
        # pick_compaction_level run after every operation, and the
        # exponentiation in level_capacity_bytes is pure config.
        self._l0_trigger = config.l0_compaction_trigger
        self._capacities: List[int] = [0] * config.max_levels
        for level in range(1, config.max_levels):
            self._capacities[level] = config.level_capacity_bytes(level)
        # Per-level max-key arrays mirroring ``levels``; point lookups
        # bisect these on every deeper-level probe, so they are maintained
        # incrementally rather than rebuilt per query.
        self._max_keys: List[List[bytes]] = [[] for _ in range(config.max_levels)]
        #: LevelDB-style round-robin cursors: per level, the max key of the
        #: last file chosen for compaction, so successive compactions sweep
        #: the key space instead of hammering one region.
        self.compact_pointer: Dict[int, bytes] = {}
        # pick_compaction_level cache: scores only change when files move
        # or linked bytes shift, yet the picker runs after every user
        # operation — so cache the answer until the next mutation.
        self._pick_cache: Optional[int] = None
        self._pick_dirty = True

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def files(self, level: int) -> List[SSTable]:
        return self.levels[level]

    def num_files(self, level: Optional[int] = None) -> int:
        if level is not None:
            return len(self.levels[level])
        return sum(len(files) for files in self.levels)

    def level_data_size(self, level: int) -> int:
        """Bytes attributed to ``level``: own data plus linked slice bytes."""
        return self._level_bytes[level] + self._level_linked_bytes[level]

    def total_data_size(self) -> int:
        """Logical bytes managed by the tree, linked slices included."""
        return sum(self._level_bytes) + sum(self._level_linked_bytes)

    def total_file_bytes(self) -> int:
        """Physical bytes of the files resident in levels.

        Excludes linked-slice bytes: those live inside *frozen* files,
        which the LDC policy accounts separately — counting them here too
        would double-bill the same bytes (Fig. 15's space metric).
        """
        return sum(self._level_bytes)

    def note_linked_bytes(self, level: int, delta: int) -> None:
        """Adjust a level's linked-slice byte counter (LDC link/merge)."""
        self._check_level(level)
        self._level_linked_bytes[level] += delta
        self._pick_dirty = True
        if self._level_linked_bytes[level] < 0:
            raise EngineError(f"level {level} linked-bytes counter underflow")

    def deepest_nonempty_level(self) -> int:
        """Index of the lowest level holding data (-1 if the tree is empty)."""
        for level in reversed(range(self.num_levels)):
            if self.levels[level]:
                return level
        return -1

    def all_tables(self) -> Iterable[SSTable]:
        for files in self.levels:
            yield from files

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_file(self, level: int, table: SSTable) -> None:
        """Install ``table`` at ``level``, keeping levels >= 1 sorted/disjoint."""
        self._check_level(level)
        if table.frozen:
            raise EngineError(f"cannot install frozen file {table.file_id} in a level")
        if table.file_id in self._level_of:
            raise EngineError(f"file {table.file_id} is already in the tree")
        self._pick_dirty = True
        if level == 0 or not self.sorted_levels:
            self.levels[level].append(table)
            self._max_keys[level].append(table.max_key)
            self._level_of[table.file_id] = level
            self._level_bytes[level] += table.data_size
            self._level_linked_bytes[level] += table.linked_bytes
            return
        # The first file ending at or after the newcomer's first key marks
        # its slot; every file before ends too early to overlap, and if
        # this one does not start too late it is the overlap.
        files = self.levels[level]
        index = bisect_left(self._max_keys[level], table.min_key)
        if index < len(files) and files[index].min_key <= table.max_key:
            raise EngineError(
                f"file {table.file_id} overlaps file {files[index].file_id} "
                f"in level {level}"
            )
        files.insert(index, table)
        self._max_keys[level].insert(index, table.max_key)
        self._level_of[table.file_id] = level
        self._level_bytes[level] += table.data_size
        self._level_linked_bytes[level] += table.linked_bytes

    def remove_file(self, level: int, table: SSTable) -> None:
        self._check_level(level)
        files = self.levels[level]
        if level == 0 or not self.sorted_levels:
            index = next(
                (i for i, resident in enumerate(files) if resident is table),
                len(files),
            )
        else:
            # Max keys strictly increase: only one slot can hold the file.
            index = bisect_left(self._max_keys[level], table.max_key)
        if index == len(files) or files[index] is not table:
            raise EngineError(
                f"file {table.file_id} is not present in level {level}"
            )
        del files[index]
        del self._max_keys[level][index]
        del self._level_of[table.file_id]
        self._pick_dirty = True
        self._level_bytes[level] -= table.data_size
        self._level_linked_bytes[level] -= table.linked_bytes

    def level_of(self, table: SSTable) -> int:
        """Which level ``table`` currently lives in (LDC merge lookup)."""
        try:
            return self._level_of[table.file_id]
        except KeyError:
            raise EngineError(
                f"file {table.file_id} is not in any level"
            ) from None

    def contains(self, table: SSTable) -> bool:
        return table.file_id in self._level_of

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise EngineError(f"level {level} out of range [0, {self.num_levels})")

    # ------------------------------------------------------------------
    # Overlap queries (half-open [lo, hi), None = unbounded)
    # ------------------------------------------------------------------
    def overlapping(
        self, level: int, lo: Optional[bytes], hi: Optional[bytes]
    ) -> List[SSTable]:
        """Files in ``level`` whose key range intersects ``[lo, hi)``.

        Returned in key order for levels >= 1 and in file-id (age) order for
        Level 0.
        """
        self._check_level(level)
        files = self.levels[level]
        if level == 0 or not self.sorted_levels:
            result = [
                table
                for table in files
                if (lo is None or table.max_key >= lo)
                and (hi is None or table.min_key < hi)
            ]
            result.sort(key=lambda table: table.file_id)
            return result
        # Sorted level: the files ending at or after ``lo`` are a suffix,
        # those starting before ``hi`` a prefix; the answer is where the
        # two meet.
        start = 0 if lo is None else bisect_left(self._max_keys[level], lo)
        stop = start
        while stop < len(files) and (hi is None or files[stop].min_key < hi):
            stop += 1
        return files[start:stop]

    def responsible_index(self, level: int, key: bytes) -> int:
        """Index of the file whose *responsibility range* covers ``key``,
        on a non-empty sorted level.

        Responsibility ranges (Example 3.2) tile the whole key space:
        file ``j`` owns ``(max_key(j-1), max_key(j)]``, the first file
        extending to the smallest key and the last to the largest.  LDC
        attaches slices by responsibility, so a slice on file F may cover
        keys *outside* F's own ``[min, max]`` — reads must therefore route
        by responsibility, not by raw range, or gap keys would skip the
        slices holding their newest versions.  A scan starts each sorted
        level here, and ``DB._lookup`` runs the same bisect inline, once
        per sorted level of every point lookup.
        """
        max_keys = self._max_keys[level]
        return min(bisect_left(max_keys, key), len(max_keys) - 1)

    # ------------------------------------------------------------------
    # Compaction scoring (shared by all policies)
    # ------------------------------------------------------------------
    def level_score(self, level: int) -> float:
        """How over-capacity a level is; > 1 means compaction is due.

        Level 0 scores by file count against ``l0_compaction_trigger`` (its
        files overlap, so reads pay per file — Theorem 2.2's ``u`` term);
        deeper levels score by bytes against the exponential capacity
        schedule (Definition 2.5).
        """
        if level == 0:
            return len(self.levels[0]) / self._l0_trigger
        return self.level_data_size(level) / self._capacities[level]

    def pick_compaction_level(self) -> Optional[int]:
        """Level most in need of compaction, or None when all fit.

        The bottom level never initiates a compaction: there is nowhere
        lower to push data.  Runs after every maintenance step, so the
        scoring is inlined over the cached byte counters and the result is
        memoised until the next structural mutation.
        """
        if not self._pick_dirty:
            return self._pick_cache
        best_level: Optional[int] = None
        best_score = 1.0
        last = self.num_levels - 1
        if last > 0:
            score = len(self.levels[0]) / self._l0_trigger
            if score >= best_score:
                best_score = score
                best_level = 0
        level_bytes = self._level_bytes
        linked_bytes = self._level_linked_bytes
        capacities = self._capacities
        for level in range(1, last):
            score = (level_bytes[level] + linked_bytes[level]) / capacities[level]
            if score >= best_score:
                best_score = score
                best_level = level
        self._pick_cache = best_level
        self._pick_dirty = False
        return best_level

    def pick_file_round_robin(self, level: int) -> SSTable:
        """Choose the next compaction source file in ``level``.

        Follows LevelDB: take the first file whose max key is past the
        level's compact pointer, wrapping to the first file; Level 0 picks
        the oldest file instead.
        """
        files = self.levels[level]
        if not files:
            raise EngineError(f"level {level} has no file to compact")
        if level == 0:
            return min(files, key=lambda table: table.file_id)
        pointer = self.compact_pointer.get(level)
        if pointer is not None:
            if self.sorted_levels:
                index = bisect_right(self._max_keys[level], pointer)
                if index < len(files):
                    return files[index]
            else:
                for table in files:
                    if table.max_key > pointer:
                        return table
        return files[0]

    def advance_compact_pointer(self, level: int, table: SSTable) -> None:
        self.compact_pointer[level] = table.max_key

    # ------------------------------------------------------------------
    # Invariant checks (used heavily by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`EngineError` if any structural invariant is broken."""
        for level in range(1, self.num_levels if self.sorted_levels else 1):
            files = self.levels[level]
            for left, right in zip(files, files[1:]):
                if left.max_key >= right.min_key:
                    raise EngineError(
                        f"level {level} files {left.file_id}/{right.file_id} "
                        f"overlap or are unsorted"
                    )
            # Slices linked on file j stay inside j's responsibility range
            # (max_key(j-1), max_key(j)], open-ended at the level's two ends:
            # get routes, and scan concatenates files, on the strength of it.
            lower = b""
            for table in files:
                for piece in table.slice_links:
                    records = piece.records()
                    if piece.record_count and not (
                        lower < records[0].key
                        and (table is files[-1] or records[-1].key <= table.max_key)
                    ):
                        raise EngineError(
                            f"level {level}: a slice of frozen file "
                            f"{piece.source.file_id} linked on file {table.file_id} "
                            f"leaves that file's responsibility range"
                        )
                lower = table.max_key
        for table in self.all_tables():
            if table.frozen:
                raise EngineError(
                    f"frozen file {table.file_id} is still inside the tree"
                )
        for level in range(self.num_levels):
            mirror = [table.max_key for table in self.levels[level]]
            if mirror != self._max_keys[level]:
                raise EngineError(
                    f"level {level} max-key mirror out of sync with files"
                )
        for level in range(self.num_levels):
            data = sum(table.data_size for table in self.levels[level])
            linked = sum(table.linked_bytes for table in self.levels[level])
            if data != self._level_bytes[level]:
                raise EngineError(
                    f"level {level} byte counter {self._level_bytes[level]} "
                    f"!= actual {data}"
                )
            if linked != self._level_linked_bytes[level]:
                raise EngineError(
                    f"level {level} linked-byte counter "
                    f"{self._level_linked_bytes[level]} != actual {linked}"
                )
            for table in self.levels[level]:
                cached = sum(piece.size_bytes for piece in table.slice_links)
                if cached != table.linked_bytes:
                    raise EngineError(
                        f"file {table.file_id} linked_bytes cache "
                        f"{table.linked_bytes} != actual {cached}"
                    )
