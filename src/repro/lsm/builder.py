"""SSTableBuilder: turn a sorted record stream into size-capped SSTables.

Both flushes (memtable -> Level 0) and compaction merges (§II-A Definition
2.4 / LDC's merge phase) feed a key-sorted, deduplicated record stream into
a builder, which cuts output files at ``sstable_target_bytes`` — the same
role ``TableBuilder`` plays in LevelDB.

File cuts read each record's ``size`` (fixed when the record was created);
nothing here recomputes one.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, List, Sequence

from .config import LSMConfig
from .record import KVRecord
from .sstable import SSTable
from ..errors import EngineError

_record_size = itemgetter(4)


class SSTableBuilder:
    """Accumulates sorted records and emits SSTables at the size cap.

    Parameters
    ----------
    config:
        Supplies the target file size, block size and Bloom sizing.
    next_file_id:
        Callable producing a fresh, monotonically increasing file id for
        each emitted file (owned by the DB so ids are unique store-wide).
    """

    def __init__(self, config: LSMConfig, next_file_id: Callable[[], int]) -> None:
        self._config = config
        self._next_file_id = next_file_id
        self._pending: List[KVRecord] = []
        self._pending_bytes = 0
        self._outputs: List[SSTable] = []
        self._last_key: bytes | None = None

    def add(self, record: KVRecord) -> None:
        """Append one record; keys must arrive strictly increasing."""
        if self._last_key is not None and record.key <= self._last_key:
            raise EngineError(
                f"builder requires strictly increasing keys: "
                f"{record.key!r} after {self._last_key!r}"
            )
        self._last_key = record.key
        self._pending.append(record)
        self._pending_bytes += record.size
        if self._pending_bytes >= self._config.sstable_target_bytes:
            self._emit()

    def add_all(self, records: Iterable[KVRecord]) -> None:
        for record in records:
            self.add(record)

    def add_sorted_run(self, records: Sequence[KVRecord]) -> None:
        """Bulk-append a strictly key-sorted, unique-keyed record run.

        The flush fast path: the memtable already guarantees sorted unique
        keys, so the per-record ordering validation of :meth:`add` is
        skipped and the accumulation loop runs with hoisted locals.  File
        cut points are identical to feeding :meth:`add` one record at a
        time (emit as soon as the pending bytes reach the target).
        """
        if not records:
            return
        first_key = records[0][0]
        if self._last_key is not None and first_key <= self._last_key:
            raise EngineError(
                f"builder requires strictly increasing keys: "
                f"{first_key!r} after {self._last_key!r}"
            )
        pending_bytes = self._pending_bytes
        target = self._config.sstable_target_bytes
        push = self._pending.append
        for record in records:
            push(record)
            pending_bytes += record[4]
            if pending_bytes >= target:
                self._pending_bytes = pending_bytes
                self._emit()
                pending_bytes = 0
                push = self._pending.append
        self._pending_bytes = pending_bytes
        self._last_key = records[-1][0]

    def add_sorted_columns(self, keys: List[bytes], records: List[KVRecord]) -> None:
        """Bulk-append a sorted run given as parallel key/record columns.

        The columnar flush fast path: the memtable hands over its sorted
        key array alongside the records, so emitted files skip the key
        re-extraction, and file cut points are found by bisect over the
        run's size prefix instead of a per-record accumulation loop.  Cuts
        are identical to :meth:`add_sorted_run` (emit as soon as the
        pending bytes reach the target; the tail stays pending).
        """
        if not records:
            return
        if self._last_key is not None and keys[0] <= self._last_key:
            raise EngineError(
                f"builder requires strictly increasing keys: "
                f"{keys[0]!r} after {self._last_key!r}"
            )
        if self._pending:
            # Mixed with per-record add(): keep the single accumulation
            # path authoritative rather than splicing columns into it.
            self.add_sorted_run(records)
            return
        sizes = list(map(_record_size, records))
        prefix = list(accumulate(sizes, initial=0))
        n = len(records)
        target = self._config.sstable_target_bytes
        config = self._config
        outputs = self._outputs
        start = 0
        while start < n:
            cut = bisect_left(prefix, prefix[start] + target, start + 1)
            if cut > n:
                break
            outputs.append(
                SSTable.from_records(
                    self._next_file_id(),
                    records[start:cut],
                    config,
                    presorted=True,
                    sizes=sizes[start:cut],
                    keys=keys[start:cut],
                )
            )
            start = cut
        if start < n:
            self._pending = records[start:]
            self._pending_bytes = prefix[n] - prefix[start]
        self._last_key = keys[-1]

    def _emit(self) -> None:
        if not self._pending:
            return
        # The builder enforced strictly increasing keys on add(), so the
        # pending list can transfer ownership without re-validation.
        table = SSTable.from_records(
            self._next_file_id(),
            self._pending,
            self._config,
            presorted=True,
        )
        self._outputs.append(table)
        self._pending = []
        self._pending_bytes = 0

    def finish(self) -> List[SSTable]:
        """Flush the tail file and return all emitted SSTables in key order."""
        self._emit()
        outputs = self._outputs
        self._outputs = []
        self._last_key = None
        return outputs


def build_tables(
    records: Iterable[KVRecord],
    config: LSMConfig,
    next_file_id: Callable[[], int],
) -> List[SSTable]:
    """Convenience wrapper: build all SSTables for a sorted record stream."""
    builder = SSTableBuilder(config, next_file_id)
    builder.add_all(records)
    return builder.finish()


def build_balanced_columns(
    keys: List[bytes],
    records: List[KVRecord],
    sizes: List[int],
    config: LSMConfig,
    next_file_id: Callable[[], int],
) -> List[SSTable]:
    """Build SSTables of near-equal size from merged columns.

    The streaming builder cuts at the target size, which leaves a fragment
    tail file (e.g. 1.2x target -> one full file plus a 0.2x sliver).
    Compaction outputs are materialised anyway, so we can do better: pick
    the file count that keeps every file close to the target
    (``nfiles = round(total / target)``) and split the byte total evenly,
    cutting greedily once a chunk reaches ``total / nfiles`` while earlier
    than the last file.  Persistent slivers matter for LDC especially —
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
