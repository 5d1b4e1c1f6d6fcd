"""LDC's design-space primitives: slice-unit selection and link/absorb.

The paper's Lower-level Driven Compaction decomposes onto the
:mod:`repro.lsm.compaction.primitives` axes as

* trigger — the ordinary ``fanout`` trigger (LDC changes *how* data
  moves, not when a level is over capacity);
* selector — :class:`LDCUnitSelector` (``"ldc_unit"``): the slice
  granularity, picking either a link-free source file to freeze and
  slice (Algorithm 1's link phase) or, when every file of the level
  already holds links, the most-linked victim to merge;
* movement — :class:`LDCLinkMergeMovement` (``"ldc_link_merge"``): the
  zero-I/O link phase, the lower-level driven merge phase, the adaptive
  threshold controller and the frozen-region space cap.

All policy state (frozen region, link bookkeeping, due set, adaptive
controller) lives in the movement — it survives crash recovery with the
policy instance, and is reached as ``db.policy.movement`` (``.frozen``,
``.link``, ``.merge``, ``.due_for_merge``).  The golden, differential and
fingerprint suites pin its behaviour byte for byte.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import attrgetter
from typing import List, Optional, Tuple

from .adaptive import AdaptiveThreshold
from .frozen import FrozenRegion
from .slice import Slice, attach_slice, detach_all_slices
from ..errors import CompactionError
from ..lsm.compaction.columnar import merge_windows
from ..lsm.compaction.primitives import (
    CandidateSelector,
    DataMovement,
    expand_level0,
    register_primitive,
)
from ..lsm.keys import key_successor
from ..lsm.sstable import SSTable
from ..obs.events import EV_LINK, EV_MERGE, EV_TRIVIAL_MOVE
from ..ssd.metrics import COMPACTION_READ

_slice_links = attrgetter("slice_links")

#: Tagged unit kinds the selector hands to the movement.
LINK_SOURCE = "source"
MERGE_VICTIM = "victim"


@register_primitive("selector", "ldc_unit")
class LDCUnitSelector(CandidateSelector):
    """LDC's compaction unit: a link source, or a merge victim.

    Returns ``(kind, table)`` where ``kind`` is :data:`LINK_SOURCE` for
    a link-free file chosen round-robin (oldest-first at Level 0), or
    :data:`MERGE_VICTIM` when every file of the level already holds
    SliceLinks (§III-D: linked files cannot be link sources) — the
    most-linked one merges so its outputs become link-free.
    """

    CANDIDATE = "ldc_unit"
    REQUIRES_SORTED = True

    def select(self, level: int):
        source = self._pick_link_source(level)
        if source is None:
            # The first most-linked file, as max(files, key=...) picks it.
            files = self.db.version.files(level)
            links = list(map(len, map(_slice_links, files)))
            victim = files[links.index(max(links))]
            return (MERGE_VICTIM, victim)
        return (LINK_SOURCE, source)

    def _pick_link_source(self, level: int) -> Optional[SSTable]:
        """Round-robin over the level's link-free files (None if all linked).

        Level 0 always picks the *oldest* file: Level-0 files overlap, and
        freezing strictly oldest-first guarantees that later-linked slices
        always carry newer data than earlier-linked ones, which the read
        path's newest-link-first priority relies on.

        A deeper level is already in key order, so the pick is the first
        link-free file past the compact pointer (one bisect of the level's
        max keys), wrapping to the first link-free file of the level.
        """
        version = self.db.version
        files = version.files(level)
        if level == 0:
            candidates = [table for table in files if not table.slice_links]
            if not candidates:
                return None
            return min(candidates, key=lambda table: table.file_id)
        pointer = version.compact_pointer.get(level)
        start = (
            0 if pointer is None
            else bisect_right(version._max_keys[level], pointer)
        )
        for index in chain(range(start, len(files)), range(start)):
            if not files[index].slice_links:
                return files[index]
        return None


@register_primitive("movement", "ldc_link_merge")
class LDCLinkMergeMovement(DataMovement):
    """The paper's link & absorb movement (Algorithm 1).

    **Link** (lines 1-9, zero I/O): freeze the source, slice it over the
    responsibility ranges of the next level, attach the SliceLinks.
    **Merge** (lines 10-22, the actual I/O): once a lower-level table's
    links are due, read it with its slices, merge-sort, rewrite in the
    same level, release frozen references.

    Urgent rounds (due merges, frozen-space pressure) preempt the
    trigger, and ``zero_io_batching`` lets several free links batch into
    one ``compact_one`` round — together Algorithm 1's priority loop.
    """

    PARAMS = ("threshold", "adaptive")
    ACCEPTS = ("ldc_unit",)
    REQUIRES_SORTED = True
    zero_io_batching = True

    def __init__(
        self,
        threshold: Optional[int] = None,
        adaptive: bool = False,
    ) -> None:
        super().__init__()
        self._threshold_override = threshold
        #: The adaptive controller shifts T_s with the op mix, so every
        #: operation must re-arm the maintenance poll.
        self.observes_operations = bool(adaptive)
        self._fixed_threshold = 0
        self._adaptive: Optional[AdaptiveThreshold] = None
        self.frozen = FrozenRegion()
        self._link_seq = 0
        #: Active lower-level tables currently holding at least one slice,
        #: keyed by file id (merge-trigger scan set).  A table enters at
        #: its first link and leaves at its merge, so dict order is
        #: first-link order: the first entry has held links longest.
        self._linked_tables: dict[int, SSTable] = {}
        #: Subset of linked tables already past the merge trigger, filled
        #: at link time so the per-operation check is O(1).
        self._due: dict[int, SSTable] = {}
        self._last_threshold: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle / hooks
    # ------------------------------------------------------------------
    def attach(self, policy) -> None:
        super().attach(policy)
        fan_out = self.db.config.fan_out
        # T_s defaults to the fan-out, the paper's balanced setting.
        self._fixed_threshold = (
            self._threshold_override
            if self._threshold_override is not None
            else fan_out
        )
        if self.observes_operations:
            self._adaptive = AdaptiveThreshold(fan_out)

    @property
    def threshold(self) -> int:
        """Current SliceLink threshold ``T_s``."""
        if self._adaptive is not None:
            return self._adaptive.threshold
        return self._fixed_threshold

    def on_operation(self, is_write: bool) -> None:
        if self._adaptive is not None:
            self._adaptive.observe(is_write)

    def extra_space_bytes(self) -> int:
        return self.frozen.space_bytes

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def urgent_round(self) -> bool:
        """Priority work ahead of the trigger: due merges, space caps."""
        if self._merge_over_threshold():
            return True
        return self._enforce_frozen_space_limit()

    def execute(self, level: int, candidate) -> bool:
        """One action against an over-capacity level.

        Returns True when the action performed I/O (a merge), False for
        zero-I/O metadata actions (a link or a trivial move).
        """
        kind, table = candidate
        if kind == MERGE_VICTIM:
            self.merge(table)
            return True
        version = self.db.version
        version.advance_compact_pointer(level, table)
        targets = version.files(level + 1)
        if not targets:
            return self._descend_into_empty_level(level, table)
        self.link(table, level)
        return False

    def due_for_merge(self, table: SSTable) -> bool:
        """Has ``table`` accumulated enough linked data to merge?

        The paper triggers the merge "when a lower-level SSTable has
        accumulated nearly the same amount of data as itself" and exposes
        the SliceLink threshold ``T_s`` as the knob, with ``T_s = fan_out``
        the balanced optimum (each slice is ~1/fan_out of a file, so
        ``fan_out`` slices equal one file).  In a simulated tree whose
        level-size ratios are not yet at steady state, slice sizes deviate
        from 1/fan_out, so we apply the *data-amount* form directly and
        scale it by the knob: merge once

            linked_bytes >= (T_s / fan_out) * file_bytes.

        At ``T_s = fan_out`` this is exactly the paper's "same amount of
        data" condition; smaller thresholds merge earlier (less slice
        accumulation, more extra I/O), larger ones later (less write
        amplification, more fragments to read) — precisely the Fig. 12a/d
        trade-off.  A slice-count backstop (4x the nominal count) bounds
        metadata growth when individual slices are tiny.
        """
        if not table.slice_links:
            return False
        ratio = self.threshold / self.db.config.fan_out
        if table.linked_bytes >= ratio * table.data_size:
            return True
        return len(table.slice_links) >= 4 * max(1, self.threshold)

    def _merge_over_threshold(self) -> bool:
        """Merge one table whose accumulated SliceLinks have reached T_s."""
        threshold = self.threshold
        if self._last_threshold is not None and threshold < self._last_threshold:
            # The adaptive controller lowered T_s: tables that were below
            # the old trigger may be due now, so refresh the due set.
            for table in self._linked_tables.values():
                if self.due_for_merge(table):
                    self._due[table.file_id] = table
        self._last_threshold = threshold
        while self._due:
            file_id, table = next(iter(self._due.items()))
            del self._due[file_id]
            # Entries can go stale if T_s rose since they were queued.
            if file_id in self._linked_tables and self.due_for_merge(table):
                self.merge(table)
                return True
        return False

    def _enforce_frozen_space_limit(self) -> bool:
        """Force a merge when the frozen region grows past its cap (§III-D).

        The victim is the table that has held links longest.  Its links
        point at the oldest frozen files, which hold the fewest live
        references, so its merge recycles whole frozen files soonest.
        """
        db = self.db
        limit = db.config.frozen_space_limit_ratio * max(
            1, db.version.total_data_size()
        )
        if self.frozen.space_bytes <= limit or not self._linked_tables:
            return False
        victim = next(iter(self._linked_tables.values()))
        db.registry.add("engine.forced_merges")
        self.policy.bump("forced_merges")
        self.merge(victim)
        return True

    def _descend_into_empty_level(self, level: int, source: SSTable) -> bool:
        """Move data into an empty next level (bootstrap path).

        With nothing below there is nothing to *drive* a lower-level
        compaction, so LDC behaves like LevelDB here: trivially move the
        file when safe (zero I/O, returns False), otherwise merge the
        Level-0 overlapping set down (returns True).
        """
        policy = self.policy
        db = self.db
        version = db.version
        if level != 0 or self._alone_in_level0(source):
            version.remove_file(level, source)
            version.add_file(level + 1, source)
            db.registry.add("engine.trivial_moves")
            policy.bump("trivial_moves")
            db.tracer.emit(
                EV_TRIVIAL_MOVE, policy=policy.name, file_id=source.file_id,
                from_level=level, to_level=level + 1,
            )
            return False
        inputs = expand_level0(version, source)
        drop = policy.can_drop_tombstones(level + 1)
        outputs = policy.merge_tables(inputs, drop_deletes=drop)
        for table in inputs:
            version.remove_file(0, table)
            db.note_file_dropped(table)
        for table in outputs:
            version.add_file(1, table)
        db.registry.add("engine.compaction_count")
        policy.bump("bootstrap_compactions")
        return True

    def _alone_in_level0(self, table: SSTable) -> bool:
        overlapping = self.db.version.overlapping(
            0, table.min_key, key_successor(table.max_key)
        )
        return len(overlapping) == 1

    # ------------------------------------------------------------------
    # Phase 1: link (Algorithm 1, lines 1-9) — zero I/O
    # ------------------------------------------------------------------
    def link(self, source: SSTable, level: int) -> None:
        """Freeze ``source`` and link its slices onto level ``level+1``."""
        policy = self.policy
        db = self.db
        version = db.version
        if source.slice_links:
            raise CompactionError(
                f"file {source.file_id} holds SliceLinks and cannot be linked"
            )
        plan = self._slice_plan(source, level + 1)
        if not plan:
            raise CompactionError(
                f"no responsibility targets found for file {source.file_id}; "
                f"level {level + 1} must be non-empty to drive a link"
            )
        version.remove_file(level, source)
        self.frozen.freeze(source, references=len(plan))
        linked = self._linked_tables
        for target, lo, hi in plan:
            self._link_seq += 1
            piece = Slice(source, lo, hi, self._link_seq)
            attach_slice(target, piece)
            version.note_linked_bytes(level + 1, piece.size_bytes)
            linked[target.file_id] = target
            if self.due_for_merge(target):
                self._due[target.file_id] = target
        db.registry.add("engine.link_count")
        policy.bump("links")
        policy.bump("slices_created", len(plan))
        policy.set_metric_gauge("threshold", self.threshold)
        policy.set_metric_gauge("frozen_space_bytes", self.frozen.space_bytes)
        db.tracer.emit(
            EV_LINK,
            source_file=source.file_id,
            from_level=level,
            to_level=level + 1,
            slices=len(plan),
            frozen_bytes=source.data_size,
        )
        # Algorithm 1 lines 8-9 trigger the merge of any target now at the
        # threshold; the round loop's urgent priority performs it on the
        # next round, which is equivalent and keeps "one I/O unit per
        # round".

    def _slice_plan(
        self, source: SSTable, target_level: int
    ) -> List[Tuple[SSTable, Optional[bytes], Optional[bytes]]]:
        """Partition ``source`` over the responsibility ranges of a level.

        Returns ``(target_file, lo, hi)`` triples (half-open ranges) for
        every lower-level file that owns at least one of the source's keys.
        The ranges tile the whole key space, so every source key is
        assigned to exactly one target.
        """
        version = self.db.version
        files = version.files(target_level)
        plan: List[Tuple[SSTable, Optional[bytes], Optional[bytes]]] = []
        if not files:
            return plan
        # Files left of the one responsible for the source's first key, or
        # right of the one responsible for its last, own none of its keys.
        first = version.responsible_index(target_level, source.min_key)
        last = version.responsible_index(target_level, source.max_key)
        lo = key_successor(files[first - 1].max_key) if first else None
        for index in range(first, last + 1):
            target = files[index]
            is_last = index == len(files) - 1
            hi = None if is_last else key_successor(target.max_key)
            if source.count_in_range(lo, hi) > 0:
                plan.append((target, lo, hi))
            lo = hi
        return plan

    # ------------------------------------------------------------------
    # Phase 2: merge (Algorithm 1, lines 10-22) — the actual I/O
    # ------------------------------------------------------------------
    def merge(self, target: SSTable) -> None:
        """Lower-level driven merge of ``target`` with its linked slices."""
        policy = self.policy
        db = self.db
        version = db.version
        slices = list(target.slice_links)
        if not slices:
            raise CompactionError(
                f"file {target.file_id} has no SliceLinks to merge"
            )
        level = version.level_of(target)

        # Load the lower file in full and each slice's overlapping blocks.
        run_sizes = [target.data_size]
        run_sizes.extend(map(Slice.read_block_bytes, slices))
        charged = db.device.read_runs(run_sizes, COMPACTION_READ, sequential=True)
        if db.device.faults is not None:
            # The batch ends at a read a corruption landed on: verifying
            # the last run charged raises before later inputs are read.
            if charged == 1:
                db._verify_block_read(target, range(target.num_blocks))
            else:
                piece = slices[charged - 2]
                db._verify_block_read(
                    piece.source,
                    range(*piece.source.block_span(piece._start, piece._stop)),
                )

        # The slices' cached index windows over their frozen sources *are*
        # the merge inputs — no re-bisect, no record materialisation.
        windows = [target.columns_window()]
        windows.extend(map(Slice.columns_window, slices))
        drop = policy.can_drop_tombstones(level)
        merged = merge_windows(windows)
        outputs = policy.finish_merge(merged, drop_deletes=drop)

        version.remove_file(level, target)
        db.note_file_dropped(target)
        self._linked_tables.pop(target.file_id, None)
        self._due.pop(target.file_id, None)
        detach_all_slices(target)
        for table in outputs:
            version.add_file(level, table)
        for piece in slices:
            # release() reports True when the last reference drops and the
            # frozen file is recycled — only then are its blocks dead.
            if self.frozen.release(piece.source):
                db.note_file_dropped(piece.source)
        db.registry.add("engine.merge_count")
        db.registry.add("engine.compaction_count")
        policy.bump("merges")
        policy.bump("slices_merged", len(slices))
        policy.set_metric_gauge("threshold", self.threshold)
        policy.set_metric_gauge("frozen_space_bytes", self.frozen.space_bytes)
        db.tracer.emit(
            EV_MERGE,
            target_file=target.file_id,
            level=level,
            slices=len(slices),
            outputs=len(outputs),
            target_bytes=target.data_size,
        )

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Cross-check movement bookkeeping (used by tests).

        Also what a point lookup trusts.  ``DB._lookup_unit`` skips a
        slice whose key span misses the key, so each linked slice is
        non-empty and its ``min_key`` / ``max_key`` are its window's first
        and last keys.  It stops at the first slice that holds the key, so
        along a table's links, newest link first, a key's sequence numbers
        fall strictly, and the table itself holds none newer than its
        slices.
        """
        self.frozen.check_invariants()
        for table in self._linked_tables.values():
            if not table.slice_links:
                raise CompactionError(
                    f"table {table.file_id} tracked as linked but has no links"
                )
            if not self.db.version.contains(table):
                raise CompactionError(
                    f"linked table {table.file_id} is not in the tree"
                )
            for piece in table.slice_links:
                self._check_span(table, piece)
            self._check_read_order(table)
        # Every frozen file's refcount must equal its live slice count.
        live_refs: dict[int, int] = {}
        for table in self._linked_tables.values():
            for piece in table.slice_links:
                live_refs[piece.source.file_id] = (
                    live_refs.get(piece.source.file_id, 0) + 1
                )
        for frozen_file in self.frozen.files():
            expected = live_refs.get(frozen_file.file_id, 0)
            if frozen_file.refcount != expected:
                raise CompactionError(
                    f"frozen file {frozen_file.file_id} refcount "
                    f"{frozen_file.refcount} != live slices {expected}"
                )

    @staticmethod
    def _check_span(table: SSTable, piece: Slice) -> None:
        """Raise unless ``piece`` is non-empty and spans its window's keys."""
        keys = piece.source._keys
        start, stop = piece._start, piece._stop
        if stop <= start:
            raise CompactionError(
                f"link {piece.link_seq} on table {table.file_id} is empty"
            )
        if (piece.min_key, piece.max_key) != (keys[start], keys[stop - 1]):
            raise CompactionError(
                f"link {piece.link_seq} on table {table.file_id} spans "
                f"[{piece.min_key!r}, {piece.max_key!r}], not its window's "
                f"[{keys[start]!r}, {keys[stop - 1]!r}]"
            )

    @staticmethod
    def _check_read_order(table: SSTable) -> None:
        """Raise unless newer links of ``table`` hold newer records."""
        newer: dict = {}  # key -> its seq in the last slice that held it
        for piece in table.links_newest_first():
            for record in piece.records():
                key, seq = record[0], record[1]
                later = newer.get(key)
                if later is not None and seq >= later:
                    raise CompactionError(
                        f"link {piece.link_seq} on table {table.file_id} "
                        f"holds seq {seq} of {key!r}, not older than a later "
                        f"link's seq {later}"
                    )
                newer[key] = seq
        for record in table.records:
            later = newer.get(record[0])
            if later is not None and record[1] >= later:
                raise CompactionError(
                    f"table {table.file_id} holds seq {record[1]} of "
                    f"{record[0]!r}, not older than its slice's seq {later}"
                )
