"""Periodic engine-state sampling during a run.

Some phenomena are invisible in end-of-run aggregates: the frozen region
breathing as links accumulate and merges recycle files, Level-0 filling
and draining around flush bursts, level sizes converging toward the
capacity schedule.  :class:`StateSampler` snapshots the engine every N
operations so benches and examples can show these dynamics over virtual
time (e.g. the frozen-region dynamics ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.primitives import LDCLinkMergeMovement
from ..lsm.db import DB


@dataclass(frozen=True)
class StateSample:
    """One snapshot of engine state."""

    op_index: int
    virtual_time_us: float
    level_files: tuple
    level_bytes: tuple
    frozen_bytes: int
    frozen_files: int
    linked_tables: int
    memtable_bytes: int
    total_space_bytes: int


class StateSampler:
    """Collects :class:`StateSample` snapshots every ``every_ops`` calls."""

    def __init__(self, db: DB, every_ops: int = 1000) -> None:
        if every_ops <= 0:
            raise ValueError("every_ops must be positive")
        self._db = db
        self._every = every_ops
        self._op_count = 0
        self.samples: List[StateSample] = []

    def tick(self) -> None:
        """Note one completed operation; snapshot at the sampling period."""
        self._op_count += 1
        if self._op_count % self._every == 0:
            self.samples.append(self.snapshot())

    def snapshot(self) -> StateSample:
        """Capture the engine's current structural state."""
        db = self._db
        version = db.version
        frozen_bytes = 0
        frozen_files = 0
        linked_tables = 0
        # The frozen region is state of LDC's link/merge movement; no
        # other movement holds files outside the tree.
        movement = db.policy.movement
        if isinstance(movement, LDCLinkMergeMovement):
            frozen_bytes = movement.frozen.space_bytes
            frozen_files = len(movement.frozen)
        for table in version.all_tables():
            if table.slice_links:
                linked_tables += 1
        return StateSample(
            op_index=self._op_count,
            virtual_time_us=db.clock.now(),
            level_files=tuple(len(files) for files in version.levels),
            level_bytes=tuple(
                version.level_data_size(level) for level in range(version.num_levels)
            ),
            frozen_bytes=frozen_bytes,
            frozen_files=frozen_files,
            linked_tables=linked_tables,
            memtable_bytes=db._memtable.approximate_bytes,
            total_space_bytes=db.space_bytes(),
        )

    # ------------------------------------------------------------------
    # Series accessors
    # ------------------------------------------------------------------
    def series(self, field: str) -> List[float]:
        """Extract one field across all samples."""
        return [getattr(sample, field) for sample in self.samples]

    def peak(self, field: str) -> float:
        values = self.series(field)
        return max(values) if values else 0.0

    def is_bounded(self, field: str, limit: float) -> bool:
        """True if the field never exceeded ``limit`` at any sample."""
        return all(value <= limit for value in self.series(field))
