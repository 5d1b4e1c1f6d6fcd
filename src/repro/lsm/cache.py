"""LRU block cache.

LevelDB serves repeated reads of hot data blocks from an in-memory LRU
cache (8 MB by default) instead of the device.  The paper leans on this
in Fig. 11: "Zipf distribution usually leads to higher hit ratios of
in-memory cache", which is why both policies accelerate under skew.

The cache maps ``(file_id, block_index)`` to the block's byte size; a hit
costs a small CPU constant, a miss charges the device and installs the
block.  File ids are unique for the lifetime of a store, so entries of
deleted files can never be wrongly hit — but until evicted they still
occupy capacity and squeeze live hot blocks, so the engine calls
:meth:`BlockCache.evict_file` the moment a compaction permanently drops
an SSTable instead of letting its dead blocks age out of the LRU.

Eviction costs one dictionary pop per block the file *has*, not a pass
over everything the cache *holds*: a file's blocks are numbered
``0 .. num_blocks - 1``, so its possible keys are known without an index
(and without the memory one would cost).  ``DB.check_invariants``
verifies that no resident key lies outside its file's block count.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..obs.registry import MetricsRegistry

_BlockKey = Tuple[int, int]


class BlockCache:
    """A byte-capacity-bounded LRU over data blocks.

    Hit/miss counts live in the metrics registry (``cache.hits`` /
    ``cache.misses``) so they appear in ``db.metrics()`` and zero with
    ``db.reset_measurements()``; a private registry is created when none
    is shared in.  Capacity-pressure evictions are counted too
    (``cache.evictions`` / ``cache.evicted_bytes``), created lazily on
    the first eviction; :meth:`evict_file` drops are deliberate and not
    counted.  The reads tally their outcomes and :meth:`count_probes`
    writes all four counters, once per point lookup or scan.
    """

    def __init__(
        self,
        capacity_bytes: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigError("block cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.registry = registry if registry is not None else MetricsRegistry()
        self._entries: "OrderedDict[_BlockKey, int]" = OrderedDict()
        self._used_bytes = 0

    def probe(self, file_id: int, block_index: int) -> bool:
        """True (and refresh recency) if the block is resident.  Counts
        nothing: the engine's reads report totals once per point lookup
        or scan (:meth:`count_probes`)."""
        key = (file_id, block_index)
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def fetch_range(
        self,
        file_id: int,
        first: int,
        end: int,
        sizes: Sequence[int],
        read_run: Callable[[int, int, int, int], None],
        tally: List[int],
    ) -> int:
        """A range read of the file's blocks ``[first, end)``, in block order.

        A resident block is refreshed.  A missing one (``sizes[block]``
        bytes) is installed at once — it may evict a block further along
        the same range — and joins the open run of misses.  A run is read
        through ``read_run(run_first, run_end, nbytes, hits)`` when a hit
        closes it (after that hit's refresh) or the range ends, ``hits``
        being the hits since the previous run, which the caller charges
        before the read.  Returns the hits after the last run, for the
        caller to charge.

        Outcomes are added to ``tally``, the caller's ``[hits, misses,
        evictions, evicted_bytes]`` for :meth:`count_probes`, also when
        ``read_run`` raises; a hit counts once it is handed to the caller.
        A raising run ends the range: no later block is probed.
        """
        entries = self._entries
        capacity = self.capacity_bytes
        used = self._used_bytes
        charged = pending = misses = evictions = freed = run_bytes = run_start = 0
        try:
            for block in range(first, end):
                key = (file_id, block)
                if key in entries:
                    entries.move_to_end(key)
                    if run_bytes:
                        # The callback may evict blocks (a run failing its CRC).
                        self._used_bytes = used
                        charged += pending
                        read_run(run_start, block, run_bytes, pending)
                        used = self._used_bytes
                        run_bytes = pending = 0
                    pending += 1
                    continue
                nbytes = sizes[block]
                if not run_bytes:
                    run_start = block
                misses += 1
                run_bytes += nbytes
                if nbytes <= capacity:
                    entries[key] = nbytes
                    used += nbytes
                    while used > capacity:
                        _, dropped = entries.popitem(last=False)
                        used -= dropped
                        evictions += 1
                        freed += dropped
            self._used_bytes = used
            if run_bytes:
                charged += pending
                read_run(run_start, end, run_bytes, pending)
                pending = 0
            charged += pending
            return pending
        finally:
            tally[0] += charged
            tally[1] += misses
            tally[2] += evictions
            tally[3] += freed

    def count_probes(
        self, hits: int, misses: int, evictions: int, evicted_bytes: int
    ) -> None:
        """Count a point lookup's or a scan's cache outcomes, in place.

        The one writer of the four ``cache.*`` counters, called once per
        lookup and once per scan, also when it raised.  Zeros create no
        counter: the eviction pair is created by the first real LRU
        eviction, so runs whose working set fits the cache keep an
        identical counter set (the batched fingerprints hash every
        registry key).
        """
        counters = self.registry._counters
        if evictions:
            counters["cache.evictions"] = counters.get("cache.evictions", 0) + evictions
            counters["cache.evicted_bytes"] = (
                counters.get("cache.evicted_bytes", 0) + evicted_bytes
            )
        if hits:
            counters["cache.hits"] = counters.get("cache.hits", 0) + hits
        if misses:
            counters["cache.misses"] = counters.get("cache.misses", 0) + misses

    def insert(
        self, file_id: int, block_index: int, nbytes: int, tally: List[int]
    ) -> None:
        """Install a block read from the device, evicting LRU as needed.

        Evictions are added to ``tally[3:5]`` — the point lookup's
        ``[skips, hits, misses, evictions, evicted_bytes]`` — for
        :meth:`count_probes`; the registry is not touched.
        """
        if nbytes > self.capacity_bytes:
            return  # a block larger than the cache can never be resident
        key = (file_id, block_index)
        entries = self._entries
        if key in entries:  # a re-install goes to the MRU end at its new size
            self._used_bytes -= entries.pop(key)
        entries[key] = nbytes
        self._used_bytes += nbytes
        while self._used_bytes > self.capacity_bytes:
            _, evicted = entries.popitem(last=False)
            self._used_bytes -= evicted
            tally[3] += 1
            tally[4] += evicted

    def evict_file(self, file_id: int, num_blocks: int) -> int:
        """Drop the resident blocks of a ``num_blocks``-block file; returns bytes freed.

        Called when a version permanently drops an SSTable (compaction
        inputs, merged LDC targets, recycled frozen files) so dead blocks
        release capacity immediately.
        """
        return self.evict_blocks(file_id, range(num_blocks))

    def evict_blocks(self, file_id: int, block_indices) -> int:
        """Drop the file's resident blocks among ``block_indices``; returns bytes freed.

        Not counted as LRU evictions or misses — the blocks are dead
        (:meth:`evict_file`) or failed their CRC after being installed.
        """
        pop = self._entries.pop
        freed = 0
        for block_index in block_indices:
            freed += pop((file_id, block_index), 0)
        self._used_bytes -= freed
        return freed

    def cached_blocks(self) -> List[_BlockKey]:
        """The resident ``(file_id, block_index)`` keys, LRU first.

        ``DB.check_invariants`` asserts each belongs to a live file and
        lies inside that file's block count — a stale entry would mean
        ``evict_file`` was skipped, or could not have reached the block,
        when a compaction dropped the file.
        """
        return list(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlockCache({self._used_bytes}/{self.capacity_bytes}B, "
            f"{len(self._entries)} blocks)"
        )
