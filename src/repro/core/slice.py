"""Slices and SliceLinks: the metadata of LDC's *link* phase (§III-B.1).

When an upper-level SSTable is selected for compaction, LDC does not move
any data.  It freezes the file and records, for each lower-level SSTable
with an overlapping responsibility range, a :class:`Slice` — a key-subrange
*view* of the frozen file.  A slice is pure in-memory metadata (the paper's
"light-weighted link action"); the bytes it denotes stay inside the frozen
file until the merge phase reads them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..lsm.keys import in_range
from ..lsm.record import KVRecord
from ..lsm.sstable import SSTable
from ..errors import EngineError


class Slice:
    """A key-subrange view ``[lo, hi)`` of a frozen source SSTable.

    ``link_seq`` is a store-wide monotonically increasing link timestamp:
    slices attached to the same lower-level SSTable are consulted
    newest-link-first on reads, because later-linked data is newer
    (§III-B.3: "linked slices have higher priority for reading").

    ``min_key`` / ``max_key`` are the first and last keys the slice holds
    — its real key span inside ``[lo, hi)``, as a file's are — and None
    for an empty slice, which no link ever holds.
    """

    __slots__ = (
        "source",
        "lo",
        "hi",
        "link_seq",
        "size_bytes",
        "record_count",
        "min_key",
        "max_key",
        "_start",
        "_stop",
    )

    def __init__(
        self,
        source: SSTable,
        lo: Optional[bytes],
        hi: Optional[bytes],
        link_seq: int,
    ) -> None:
        if not source.frozen:
            raise EngineError(
                f"slices may only view frozen files; {source.file_id} is active"
            )
        self.source = source
        self.lo = lo
        self.hi = hi
        self.link_seq = link_seq
        # The source is immutable, so the slice's index window is fixed at
        # construction: cache it once instead of re-bisecting the key
        # column on every records()/size query.
        start, stop = source._index_range(lo, hi)
        self._start = start
        self._stop = stop
        #: Cached logical size of the slice — this is the quantity that
        #: accumulates toward the SliceLink threshold T_s.
        if stop > start:
            prefix = source._size_prefix
            self.size_bytes = prefix[stop] - prefix[start]
            self.record_count = stop - start
            self.min_key = source._keys[start]
            self.max_key = source._keys[stop - 1]
        else:
            self.size_bytes = 0
            self.record_count = 0
            self.min_key = None
            self.max_key = None

    # ------------------------------------------------------------------
    def covers_key(self, key: bytes) -> bool:
        return in_range(key, self.lo, self.hi)

    def get(self, key: bytes) -> Optional[KVRecord]:
        """Point lookup inside the slice (None outside its range)."""
        if not self.covers_key(key):
            return None
        return self.source.get(key)

    def records(self) -> Sequence[KVRecord]:
        """All records this slice denotes, key-sorted."""
        return self.source._records[self._start:self._stop]

    def columns_window(self) -> tuple:
        """The slice as a merge window over its source's keys and records.

        Same shape as :meth:`~repro.lsm.sstable.SSTable.columns_window`
        but bounded to the slice's cached ``[start, stop)`` index window —
        the merge input representation of LDC's link/merge fast path (no
        re-bisect, no per-record decode).
        """
        source = self.source
        return (source._keys, source._records, self._start, self._stop)

    # ------------------------------------------------------------------
    # I/O cost queries: a slice read touches only the source blocks that
    # overlap the slice range — the saving over UDC's whole-file reads.
    # ------------------------------------------------------------------
    def read_block_bytes(self) -> int:
        """Device bytes to load the whole slice during a merge.

        Whole blocks are the unit of I/O: the blocks the cached index
        window ``[_start, _stop)`` touches, each paid in full.
        """
        source = self.source
        first, end = source.block_span(self._start, self._stop)
        return sum(source._block_bytes[first:end]) if end > first else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Slice(src={self.source.file_id}, lo={self.lo!r}, hi={self.hi!r}, "
            f"bytes={self.size_bytes}, link_seq={self.link_seq})"
        )


def attach_slice(target: SSTable, piece: Slice) -> None:
    """Record a SliceLink: ``piece`` now belongs to lower-level ``target``."""
    if target.frozen:
        raise EngineError(
            f"cannot link onto frozen file {target.file_id}; links target "
            f"active lower-level SSTables"
        )
    target.slice_links.append(piece)
    target._links_newest = None
    target.linked_bytes += piece.size_bytes


def detach_all_slices(target: SSTable) -> List[Slice]:
    """Remove and return every SliceLink of ``target`` (merge consumed them)."""
    detached = target.slice_links
    target.slice_links = []
    target._links_newest = None
    target.linked_bytes = 0
    return detached
