"""SSTables: immutable sorted runs of records (Definition 2.3).

An :class:`SSTable` models one on-device file: a key-sorted sequence of
records laid out in fixed-size *data blocks*, plus in-memory metadata — the
key range, a per-block index, and a Bloom filter.  The engine holds the
records in Python lists (the data is real and checkable) while the *cost*
of touching them is expressed in blocks: a point lookup reads one data
block, a range read touches the blocks overlapping the range.  The device
model converts those block counts into virtual time.

A file is three parallel parts, all built at construction: the record
list, the key list the lookups bisect, and the prefix sums of the records'
sizes (``KVRecord.size``) that make any byte range one subtraction.
Everything else a reader may want is a pure function of those three,
carries no virtual-time charge, and is derived on first use, because a
write-heavy run compacts most files away before anything reads them: the
Bloom filter (:attr:`SSTable.bloom`), the block index
(:meth:`SSTable.block_index`), the per-block CRCs and ``max_seq``.

Under LDC an SSTable can additionally carry:

* ``slice_links`` — slices of frozen upper-level files linked onto this
  (lower-level) file, waiting for the merge trigger (§III-B.1);
* ``frozen`` / ``refcount`` — state for files moved to the frozen region,
  recycled when their last linked slice has been merged (§III-B.2).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter
from typing import List, Optional, Sequence, TYPE_CHECKING

from itertools import accumulate

_record_key = itemgetter(0)
_record_seq = itemgetter(1)
_record_size = itemgetter(4)
_slice_link_seq = attrgetter("link_seq")

from .bloom import BloomFilter
from .config import LSMConfig
from .record import KVRecord, check_record_sizes
from ..errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..core.slice import Slice


class SSTable:
    """One immutable sorted file.

    Use :meth:`from_records` (or a :mod:`~repro.lsm.builder` function)
    to construct; records must be strictly increasing in key with exactly
    one version per key.
    """

    __slots__ = (
        "file_id",
        "_keys",
        "_records",
        "_size_prefix",
        "data_size",
        "_bloom",
        "_bloom_bits_per_key",
        "_block_target",
        "_block_starts",
        "_block_bytes",
        "slice_links",
        "_links_newest",
        "linked_bytes",
        "frozen",
        "refcount",
        "min_key",
        "max_key",
        "_max_seq",
        "_block_crcs",
    )

    def __init__(
        self,
        file_id: int,
        records: Sequence[KVRecord],
        block_bytes: int,
        bloom_bits_per_key: int,
        *,
        presorted: bool = False,
        sizes: Optional[List[int]] = None,
        keys: Optional[List[bytes]] = None,
    ) -> None:
        """Build a file over ``records``.

        ``presorted=True`` promises the records are already strictly
        key-sorted with one version per key (true for every compaction or
        flush output, which came out of a sorted merge) and, when
        ``records`` is a list, transfers ownership of it — the caller must
        not mutate it afterwards.  Sort validation is skipped on that path;
        it is one of the hottest loops in the simulator.

        ``sizes`` and ``keys`` optionally supply the records' ``size`` and
        ``key`` columns (the merge and the builders already hold them to
        decide file cuts), with the same ownership transfer as
        ``records``, so this constructor — a hot path, running once per
        flushed or compacted file — extracts no per-record field.
        """
        if not records:
            raise EngineError("an SSTable must contain at least one record")
        self.file_id = file_id
        if presorted and type(records) is list:
            self._records = records
        else:
            self._records = list(records)
        records_list = self._records
        if keys is None:
            keys = list(map(_record_key, records_list))
        self._keys = keys
        if not presorted:
            for left, right in zip(keys, keys[1:]):
                if left >= right:
                    raise EngineError(
                        f"SSTable records must be strictly key-sorted; "
                        f"{left!r} !< {right!r}"
                    )
        # _size_prefix[i] is the total size of records[0:i], making
        # bytes_in_range O(log n).
        if sizes is None:
            sizes = map(_record_size, records_list)
        self._size_prefix = list(accumulate(sizes, initial=0))
        self.data_size = self._size_prefix[-1]
        # Plain attributes, not properties: the key range is immutable and
        # covers_key / version routing read these millions of times.
        self.min_key = keys[0]
        self.max_key = keys[-1]
        # Bloom filter, built lazily on first probe: the bits are a pure
        # function of (keys, bits_per_key) so deferral is unobservable,
        # construction carries no virtual-time charge, and write-heavy
        # runs create thousands of short-lived files whose filters are
        # never consulted before compaction consumes them.
        self._bloom: Optional[BloomFilter] = None
        self._bloom_bits_per_key = bloom_bits_per_key
        # Block index, laid out on first use like the Bloom filter: it is
        # a pure function of (size prefix, block size) and carries no
        # virtual-time charge either.
        self._block_target = block_bytes
        self._block_starts: Optional[List[int]] = None
        self._block_bytes: Optional[List[int]] = None
        # LDC state (inert under UDC/tiered policies).  ``linked_bytes``
        # caches the byte total of ``slice_links``: once linked, upper-level
        # data counts toward *this* file's level for compaction scoring
        # (§III-A).  Maintained by attach_slice / the merge phase.
        self.slice_links: List["Slice"] = []
        self._links_newest: Optional[List["Slice"]] = None
        self.linked_bytes = 0
        self.frozen = False
        self.refcount = 0
        self._max_seq: Optional[int] = None
        # Per-block CRCs, computed lazily: fault-free runs never pay for
        # them, decode paths under fault injection verify against the
        # device's delivered (possibly bit-flipped) copy.
        self._block_crcs: Optional[List[Optional[int]]] = None

    @classmethod
    def from_records(
        cls,
        file_id: int,
        records: Sequence[KVRecord],
        config: LSMConfig,
        *,
        presorted: bool = False,
        sizes: Optional[List[int]] = None,
        keys: Optional[List[bytes]] = None,
    ) -> "SSTable":
        """Build an SSTable using the config's block and Bloom settings."""
        return cls(
            file_id,
            records,
            config.block_bytes,
            config.bloom_bits_per_key,
            presorted=presorted,
            sizes=sizes,
            keys=keys,
        )

    def _build_blocks(self) -> tuple[List[int], List[int]]:
        """Partition the record array into blocks of ~``block_bytes`` each.

        Greedy layout: a block closes with the first record that pushes its
        cumulative size to ``block_bytes``.  Record sizes are strictly
        positive, so the size prefix is strictly increasing and each cut
        point is a single ``bisect`` instead of a per-record Python loop —
        same blocks, O(blocks log n).
        """
        prefix = self._size_prefix
        block_bytes = self._block_target
        starts: List[int] = []
        sizes: List[int] = []
        push_start = starts.append
        push_size = sizes.append
        n = len(prefix) - 1
        index = 0
        while index < n:
            push_start(index)
            threshold = prefix[index] + block_bytes
            stop = bisect_left(prefix, threshold, index + 1)
            if stop > n:
                stop = n
            push_size(prefix[stop] - prefix[index])
            index = stop
        self._block_starts = starts
        self._block_bytes = sizes
        return starts, sizes

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def bloom(self) -> BloomFilter:
        """The file's Bloom filter, constructed on first access."""
        built = self._bloom
        if built is None:
            built = self._bloom = BloomFilter(
                self._keys, self._bloom_bits_per_key
            )
        return built

    @property
    def num_records(self) -> int:
        return len(self._records)

    def block_index(self) -> tuple[List[int], List[int]]:
        """``(first record index, device bytes)`` per block, in block order.

        Laid out on first use.  ``locate`` / ``block_span`` and the scan
        charge inline this ``is None`` check instead of calling here.
        """
        starts = self._block_starts
        if starts is None:
            return self._build_blocks()
        return starts, self._block_bytes

    @property
    def num_blocks(self) -> int:
        return len(self.block_index()[0])

    @property
    def max_seq(self) -> int:
        """Highest sequence number stored in this file.

        Recovery rebuilds the engine's next-sequence counter from the max
        over live files (plus replayed WAL records), so acknowledged seqs
        never repeat; nothing else reads it.
        """
        found = self._max_seq
        if found is None:
            found = self._max_seq = max(map(_record_seq, self._records))
        return found

    @property
    def records(self) -> Sequence[KVRecord]:
        """Read-only view of all records (test and merge helper)."""
        return self._records

    def columns_window(self) -> tuple:
        """The whole file as a merge window.

        Returns ``(keys, records, start, stop)`` — the key index, the
        record list and the half-open index window — the input
        representation of :func:`repro.lsm.compaction.columnar.
        merge_windows`.  The lists are the file's own immutable parts;
        callers must not mutate them.
        """
        records = self._records
        return (self._keys, records, 0, len(records))

    def covers_key(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key

    def links_newest_first(self) -> List["Slice"]:
        """Slice links in read-priority order (latest ``link_seq`` first).

        Cached between link mutations: every point lookup touching a
        linked file consults this order, while links change only at LDC
        link/merge rounds (``attach_slice`` / ``detach_all_slices``
        invalidate the cache).  Callers must not mutate the result.
        """
        cached = self._links_newest
        if cached is None:
            cached = sorted(
                self.slice_links, key=_slice_link_seq, reverse=True
            )
            self._links_newest = cached
        return cached

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[KVRecord]:
        """Return the record stored under ``key`` (tombstones included)."""
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._records[index]
        return None

    def locate(
        self, key: bytes
    ) -> Optional[tuple[Optional[KVRecord], int, int]]:
        """What a point lookup of ``key`` reads: ``(record, block, nbytes)``.

        One bisect of the key column answers both questions a lookup asks:
        which data block it must read (index and device bytes) and which
        record, if any, that block holds under ``key``.  Returns None when
        ``key`` falls outside this file's ``[min_key, max_key]`` — there is
        no block to read, so nothing to charge.
        """
        if not self.min_key <= key <= self.max_key:
            return None
        keys = self._keys
        index = bisect_left(keys, key)  # < len(keys): key <= max_key
        starts = self._block_starts
        if starts is None:
            starts = self._build_blocks()[0]
        block = bisect_right(starts, index) - 1
        record = self._records[index] if keys[index] == key else None
        return record, block, self._block_bytes[block]

    def block_span(self, start: int, stop: int) -> tuple[int, int]:
        """The half-open range of blocks holding records ``[start, stop)``."""
        if stop <= start:
            return 0, 0
        starts = self._block_starts
        if starts is None:
            starts = self._build_blocks()[0]
        return bisect_right(starts, start) - 1, bisect_right(starts, stop - 1)

    # ------------------------------------------------------------------
    # Range queries (half-open [lo, hi), None = unbounded)
    # ------------------------------------------------------------------
    def _index_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> tuple[int, int]:
        start = 0 if lo is None else bisect_left(self._keys, lo)
        stop = len(self._keys) if hi is None else bisect_left(self._keys, hi)
        return start, stop

    def count_in_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> int:
        start, stop = self._index_range(lo, hi)
        return max(0, stop - start)

    def bytes_in_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> int:
        """Encoded size of the records in ``[lo, hi)`` (slice sizing)."""
        start, stop = self._index_range(lo, hi)
        if stop <= start:
            return 0
        return self._size_prefix[stop] - self._size_prefix[start]

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def block_crc(self, block: int) -> int:
        """CRC32 of one data block's records (computed lazily, cached).

        Decode paths under fault injection compare this *stored* checksum
        against the one delivered by the device (stored XOR the injected
        bit-flip mask) and raise
        :class:`~repro.errors.CorruptionError` on mismatch.
        """
        starts = self.block_index()[0]
        crcs = self._block_crcs
        if crcs is None:
            crcs = self._block_crcs = [None] * len(starts)
        cached = crcs[block]
        if cached is not None:
            return cached
        start = starts[block]
        stop = (
            starts[block + 1] if block + 1 < len(starts) else len(self._records)
        )
        crc = 0
        for record in self._records[start:stop]:
            crc = zlib.crc32(record.key, crc)
            crc = zlib.crc32(record.value, crc)
            crc = zlib.crc32(record.seq.to_bytes(8, "big"), crc)
        crcs[block] = crc
        return crc

    def block_bytes_in_range(self, lo: Optional[bytes], hi: Optional[bytes]) -> int:
        """Device bytes needed to read every record in ``[lo, hi)``.

        Whole blocks are the unit of I/O, so a range touching part of a
        block pays for the full block — this is exactly the extra cost LDC
        accepts when it reads a *slice* of a frozen file instead of the
        whole file.
        """
        first, end = self.block_span(*self._index_range(lo, hi))
        return sum(self.block_index()[1][first:end])

    def check_invariants(self) -> None:
        """Re-derive what the file trusts: record sizes and their sums."""
        prefix = self._size_prefix
        sizes = check_record_sizes(self._records)
        if prefix != list(accumulate(sizes, initial=0)):
            raise EngineError(
                f"file {self.file_id}: size prefix is not the running sum "
                f"of its records' sizes"
            )
        if self.data_size != prefix[-1]:
            raise EngineError(
                f"file {self.file_id}: data_size {self.data_size} != "
                f"{prefix[-1]} bytes of records"
            )
        if self._block_bytes is not None and sum(self._block_bytes) != prefix[-1]:
            raise EngineError(
                f"file {self.file_id}: blocks hold {sum(self._block_bytes)} "
                f"bytes, records {prefix[-1]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "frozen" if self.frozen else "active"
        return (
            f"SSTable(id={self.file_id}, {state}, n={self.num_records}, "
            f"range=[{self.min_key!r}..{self.max_key!r}], "
            f"links={len(self.slice_links)})"
        )
