"""LDC's whole-level round bookkeeping, kept as a test oracle.

Until the bookkeeping stopped rescanning levels, two of LDC's per-round
decisions read every file they could have skipped:

* the link source was found by filtering the level for link-free files,
  then ``sorted(candidates, key=lambda t: t.min_key)`` past the compact
  pointer, wrapping to the ``min`` by ``min_key``;
* a slice's merge read was priced by ``SSTable.block_bytes_in_range``,
  re-bisecting the source's key column for ``lo`` / ``hi`` when the slice
  already held that window.

They live on here, verbatim in behaviour, as the reference
``tests/test_ldc_equivalence.py`` pair-runs the replacements against.
``install(db)`` binds them onto an LDC store's selector and movement, so
that store takes every one of those decisions the old way.
"""

from __future__ import annotations

from types import MethodType

from repro.core.slice import detach_all_slices
from repro.errors import CompactionError
from repro.lsm.compaction.columnar import merge_windows
from repro.obs.events import EV_MERGE
from repro.ssd.metrics import COMPACTION_READ


def pick_link_source(selector, level: int):
    """The old ``_pick_link_source``: filter, then sort past the pointer."""
    version = selector.db.version
    candidates = [
        table for table in version.files(level) if not table.slice_links
    ]
    if not candidates:
        return None
    if level == 0:
        return min(candidates, key=lambda table: table.file_id)
    pointer = version.compact_pointer.get(level)
    if pointer is not None:
        for table in sorted(candidates, key=lambda t: t.min_key):
            if table.max_key > pointer:
                return table
    return min(candidates, key=lambda table: table.min_key)


def read_block_bytes(piece) -> int:
    """The old ``Slice.read_block_bytes``: re-bisect ``lo`` / ``hi``."""
    return piece.source.block_bytes_in_range(piece.lo, piece.hi)


def merge(movement, target) -> None:
    """The old ``merge``, pricing each slice by :func:`read_block_bytes`."""
    policy = movement.policy
    db = movement.db
    version = db.version
    slices = list(target.slice_links)
    if not slices:
        raise CompactionError(
            f"file {target.file_id} has no SliceLinks to merge"
        )
    level = version.level_of(target)

    run_sizes = [target.data_size]
    run_sizes.extend(read_block_bytes(piece) for piece in slices)
    charged = db.device.read_runs(run_sizes, COMPACTION_READ, sequential=True)
    if db.device.faults is not None:
        if charged == 1:
            db._verify_block_read(target, range(target.num_blocks))
        else:
            piece = slices[charged - 2]
            db._verify_block_read(
                piece.source,
                range(*piece.source.block_span(piece._start, piece._stop)),
            )

    windows = [target.columns_window()]
    windows.extend(piece.columns_window() for piece in slices)
    drop = policy.can_drop_tombstones(level)
    merged = merge_windows(windows)
    outputs = policy.finish_merge(merged, drop_deletes=drop)

    version.remove_file(level, target)
    db.note_file_dropped(target)
    movement._linked_tables.pop(target.file_id, None)
    movement._due.pop(target.file_id, None)
    detach_all_slices(target)
    for table in outputs:
        version.add_file(level, table)
    for piece in slices:
        if movement.frozen.release(piece.source):
            db.note_file_dropped(piece.source)
    db.registry.add("engine.merge_count")
    db.registry.add("engine.compaction_count")
    policy.bump("merges")
    policy.bump("slices_merged", len(slices))
    policy.set_metric_gauge("threshold", movement.threshold)
    policy.set_metric_gauge("frozen_space_bytes", movement.frozen.space_bytes)
    db.tracer.emit(
        EV_MERGE,
        target_file=target.file_id,
        level=level,
        slices=len(slices),
        outputs=len(outputs),
        target_bytes=target.data_size,
    )


def install(db) -> None:
    """Make an LDC store take its round decisions through this oracle."""
    selector, movement = db.policy.selector, db.policy.movement
    selector._pick_link_source = MethodType(pick_link_source, selector)
    movement.merge = MethodType(merge, movement)
