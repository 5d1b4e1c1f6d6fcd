"""Flash internals under the simulated device: pages, blocks, FTL, GC.

The plain :class:`~repro.ssd.device.SimulatedSSD` charges *host* traffic
only, so the repository measured host write amplification and merely
asserted the paper's device story.  This module models the layer below
the host interface — the part of a real SSD that turns "SSD-friendly"
host I/O into longer device lifetime:

* a **geometry** of pages grouped into erase blocks
  (:class:`FlashSpec`), with configurable over-provisioning;
* a page-mapping **FTL** (:class:`FlashTranslationLayer`): host writes
  are appended log-structured into the open block, the logical→physical
  table tracks every live page, and overwritten/deleted data is
  invalidated in place;
* **garbage collection** with pluggable victim selection (``greedy``
  picks the block with the most invalid pages; ``cost_benefit`` uses the
  classic age·(1−u)/2u score) that relocates live pages and erases the
  victim, charging the relocation I/O through the normal device
  accounting under the :data:`GC_READ`/:data:`GC_WRITE` categories;
* per-block **erase counts** — the endurance quantity the paper's
  lifetime argument is about.

The layer is strictly opt-in: ``DeviceConfig(flash=FlashSpec(...))``
switches it on, and with ``flash=None`` (the default) the device is
byte-identical to the flash-less simulator — pinned by the golden and
differential suites.

Ownership model
---------------
The engine's write sites do not address LBAs; they write immutable files
(SSTables) and an append-only WAL.  Writers therefore tag each write
with an *owner* (the SSTable ``file_id``, or :data:`WAL_STREAM_OWNER`
for the log) and the FTL tracks live pages per owner.  Data dies in two
ways only: a whole owner is dropped (``device.trim(owner)`` — an
SSTable deleted after compaction, or the WAL reset after a flush), or
GC relocates around it.  ``stream=True`` writes (the WAL) accumulate
sub-page appends in a per-owner fill buffer and program only whole
pages, modelling the device-side RAM buffer in front of the log; the
unprogrammed remainder is surfaced as the ``flash.stream_pending_bytes``
gauge.

Crash safety
------------
GC charges its relocation I/O by re-entering the device's own
:meth:`~repro.ssd.device.SimulatedSSD.read` / ``write``, so it passes the
fault-plan hooks like any request and a crash point can land inside a GC
relocation.  The mapping table is mutated only *after* the charges
succeed, and each relocated page's old mapping stays valid until the new
one is installed, so a crash at any charged I/O leaves the table
recoverable (verified by the crashtest oracle with flash enabled).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from .metrics import GC_READ, GC_WRITE
from .profile import ENTERPRISE_PCIE, SSDProfile
from ..errors import ConfigError, DeviceError, FlashFullError

# GC relocation traffic is charged under the GC_READ/GC_WRITE categories
# (defined with the host categories in repro.ssd.metrics): relocations
# share the normal ``device.<dir>.<cat>.*`` accounting, and host-level
# write amplification subtracts ``gc_write`` bytes back out (see
# ``MetricsSnapshot.write_amplification``).

#: Owner tag used by the WAL's streamed appends.
WAL_STREAM_OWNER = "wal-stream"

#: Owner tag for untagged writes (direct ``device.write`` calls without
#: an ``owner=``).  They are treated as live forever — fine for
#: experiments, but engine write sites always tag.
UNTAGGED_OWNER = "untagged"

# Registry keys (counters reset with the measurement window; gauges
# describe current device state and survive resets).
CTR_BYTES_PROGRAMMED = "flash.bytes_programmed"
CTR_PAGES_PROGRAMMED = "flash.pages_programmed"
CTR_HOST_PAGES = "flash.host_pages_programmed"
CTR_GC_PAGES = "flash.gc_pages_relocated"
CTR_ERASES = "flash.blocks_erased"
CTR_COLLECTIONS = "flash.gc_collections"
CTR_ERASE_TIME_US = "flash.erase_time_us"
GAUGE_MAX_ERASE = "flash.max_erase_count"
GAUGE_TOTAL_ERASE = "flash.total_erase_count"
GAUGE_STREAM_PENDING = "flash.stream_pending_bytes"
GAUGE_FREE_BLOCKS = "flash.free_blocks"
GAUGE_LIVE_PAGES = "flash.live_pages"

Owner = Hashable


@dataclass(frozen=True)
class FlashSpec:
    """Geometry and policy knobs of the simulated flash layer.

    ``logical_bytes`` is the advertised capacity; the physical array is
    ``logical_bytes * (1 + over_provisioning)`` rounded up to whole
    blocks, plus ``gc_reserve_blocks`` blocks GC may dip into when the
    free pool runs dry.  ``erase_us`` defaults to 0 so that runs without
    GC pressure charge exactly the host I/O time (pinned by the flash
    differential suite); set it to model erase latency explicitly.
    """

    page_bytes: int = 4096
    pages_per_block: int = 64
    logical_bytes: int = 64 * 1024 * 1024
    over_provisioning: float = 0.07
    gc_policy: str = "greedy"
    gc_reserve_blocks: int = 2
    erase_us: float = 0.0

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise ConfigError(f"page_bytes must be positive, got {self.page_bytes}")
        if self.pages_per_block <= 0:
            raise ConfigError(
                f"pages_per_block must be positive, got {self.pages_per_block}"
            )
        if self.logical_bytes <= 0:
            raise ConfigError(
                f"logical_bytes must be positive, got {self.logical_bytes}"
            )
        if self.over_provisioning < 0:
            raise ConfigError(
                "over_provisioning must be non-negative, "
                f"got {self.over_provisioning}"
            )
        if self.gc_reserve_blocks < 1:
            raise ConfigError(
                f"gc_reserve_blocks must be >= 1, got {self.gc_reserve_blocks}"
            )
        if self.erase_us < 0:
            raise ConfigError(f"erase_us must be non-negative, got {self.erase_us}")
        if self.gc_policy not in ("greedy", "cost_benefit"):
            raise ConfigError(
                "gc_policy must be 'greedy' or 'cost_benefit', "
                f"got {self.gc_policy!r}"
            )

    # Derived geometry ---------------------------------------------------
    @property
    def block_bytes(self) -> int:
        return self.page_bytes * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        return -(-self.logical_bytes // self.page_bytes)

    @property
    def total_blocks(self) -> int:
        provisioned_pages = math.ceil(
            self.logical_pages * (1.0 + self.over_provisioning)
        )
        data_blocks = -(-provisioned_pages // self.pages_per_block)
        return data_blocks + self.gc_reserve_blocks

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def physical_bytes(self) -> int:
        return self.total_pages * self.page_bytes


@dataclass(frozen=True)
class DeviceConfig:
    """Bundle of device parameters accepted everywhere a profile is.

    Every ``profile=`` parameter in the stack (``DB``, ``run_workload``,
    grid tasks, the crashtest harness) accepts either a bare
    :class:`~repro.ssd.profile.SSDProfile` or a ``DeviceConfig``; the
    device normalises the two forms, so the flash layer threads through
    the whole harness without new plumbing.  Frozen (hence picklable) so
    grid tasks can carry it across process boundaries.
    """

    profile: SSDProfile = ENTERPRISE_PCIE
    flash: Optional[FlashSpec] = None

    @property
    def name(self) -> str:
        """Label used by reports; marks flash-enabled configurations."""
        if self.flash is None:
            return self.profile.name
        return f"{self.profile.name}+flash"


class FlashTranslationLayer:
    """Page-mapping FTL with log-structured allocation and GC.

    One instance lives behind a flash-enabled
    :class:`~repro.ssd.device.SimulatedSSD` (``device.flash``).  Pages
    are identified by physical page number (``ppn``); ``ppn //
    pages_per_block`` is the owning block.  Per-owner live pages are the
    logical side of the mapping (``owner_pages[owner][i]`` is the
    physical page holding the owner's *i*-th page), ``page_owner`` is
    the reverse map, and per-block counters drive victim selection.
    """

    def __init__(self, spec: FlashSpec, device) -> None:
        self.spec = spec
        self.device = device
        nblocks = spec.total_blocks
        self._nblocks = nblocks
        self._ppb = spec.pages_per_block
        #: Reverse map: ppn -> (owner, index) for live pages, None for
        #: free or invalid pages.
        self.page_owner: List[Optional[Tuple[Owner, int]]] = (
            [None] * spec.total_pages
        )
        #: Forward map: owner -> list of ppns, one per live logical page.
        self.owner_pages: Dict[Owner, List[int]] = {}
        self._valid: List[int] = [0] * nblocks
        self._written: List[int] = [0] * nblocks
        self.erase_counts: List[int] = [0] * nblocks
        self._stamp: List[int] = [0] * nblocks
        self._free: Deque[int] = deque(range(nblocks))
        self._host_block: Optional[int] = None
        self._host_used = 0
        self._gc_block: Optional[int] = None
        self._gc_used = 0
        self._program_counter = 0
        self._stream_pending: Dict[Owner, int] = {}
        #: Valid pages / unprogrammed stream-fill bytes: running totals of
        #: ``owner_pages`` and ``_stream_pending``, moved wherever those
        #: move (their gauges are republished on every write and trim).
        self.live_pages = 0
        self.stream_pending_bytes = 0
        #: Absolute programmed-byte total (never reset; the wear proxy
        #: behind ``device.wear_bytes`` — the registry counter of the
        #: same name is window-scoped).
        self.bytes_programmed = 0
        self.blocks_erased = 0

    # ------------------------------------------------------------------
    # Host interface (called by SimulatedSSD.write)
    # ------------------------------------------------------------------
    def host_write(
        self,
        nbytes: int,
        category: str,
        *,
        owner: Optional[Owner] = None,
        stream: bool = False,
    ) -> None:
        """Map one host write of ``nbytes`` into page programs.

        Whole-page writes round up (``ceil(nbytes / page_bytes)``
        pages); ``stream=True`` writes accumulate in the owner's fill
        buffer and program only completed pages.  May trigger GC (and
        hence charge relocation I/O through the device) when the
        free-block pool drops to the reserve.
        """
        if nbytes == 0:
            return
        if owner is None:
            owner = UNTAGGED_OWNER
        page_bytes = self.spec.page_bytes
        if stream:
            pending = self._stream_pending.get(owner, 0)
            npages, remainder = divmod(pending + nbytes, page_bytes)
            if npages:
                self._program_owner(owner, npages)
            self._stream_pending[owner] = remainder
            self.stream_pending_bytes += remainder - pending
            self.device.registry.set_gauge(
                GAUGE_STREAM_PENDING, self.stream_pending_bytes
            )
        else:
            npages = -(-nbytes // page_bytes)
            self._program_owner(owner, npages)

    def trim(self, owner: Owner) -> None:
        """Invalidate every page of ``owner`` (file delete / WAL reset)."""
        pending = self._stream_pending.pop(owner, None)
        if pending is not None:
            self.stream_pending_bytes -= pending
            self.device.registry.set_gauge(
                GAUGE_STREAM_PENDING, self.stream_pending_bytes
            )
        pages = self.owner_pages.pop(owner, None)
        if pages is None:
            return
        page_owner = self.page_owner
        valid = self._valid
        ppb = self._ppb
        for ppn in pages:
            page_owner[ppn] = None
            valid[ppn // ppb] -= 1
        self.live_pages -= len(pages)
        self.device.registry.set_gauge(GAUGE_LIVE_PAGES, self.live_pages)

    # ------------------------------------------------------------------
    # Programming and allocation
    # ------------------------------------------------------------------
    def _program_owner(self, owner: Owner, npages: int) -> None:
        """Program ``npages`` pages of ``owner``, a block run at a time.

        Each run fills the open host block's next free pages with slice
        assignments: the reverse entries, the forward ppns, the block's
        valid / written counts and stamp, the program counter and the
        live total move together.  Only opening a block can collect (and
        so raise a full device or an injected crash), and it happens
        between runs, so every raise leaves the mapping exactly as the
        page-at-a-time loop did.
        """
        pages = self.owner_pages.get(owner)
        if pages is None:
            pages = self.owner_pages[owner] = []
        page_owner = self.page_owner
        left = npages
        while left:
            first, run = self._claim(left, for_gc=False)
            index = len(pages)
            page_owner[first : first + run] = zip(
                repeat(owner), range(index, index + run)
            )
            pages.extend(range(first, first + run))
            self._valid[first // self._ppb] += run
            self.live_pages += run
            left -= run
        nbytes = npages * self.spec.page_bytes
        self.bytes_programmed += nbytes
        registry = self.device.registry
        registry.add_many(
            [
                (CTR_PAGES_PROGRAMMED, npages),
                (CTR_HOST_PAGES, npages),
                (CTR_BYTES_PROGRAMMED, nbytes),
            ]
        )
        registry.set_gauge(GAUGE_LIVE_PAGES, self.live_pages)

    def _claim(self, pages: int, *, for_gc: bool) -> Tuple[int, int]:
        """Claim the next run of up to ``pages`` free pages of the open host
        (or GC) block, opening a free block first if none is open.

        Returns ``(first_ppn, run)``.  The block's written count, its
        stamp (the last page's program number) and the program counter
        advance by the run; a block whose last page is claimed closes.
        """
        ppb = self._ppb
        if for_gc:
            block = self._gc_block
            if block is None:
                block = self._gc_block = self._take_free_block(for_gc=True)
                self._gc_used = 0
            used = self._gc_used
        else:
            block = self._host_block
            if block is None:
                block = self._host_block = self._take_free_block(for_gc=False)
                self._host_used = 0
            used = self._host_used
        run = ppb - used
        if run > pages:
            run = pages
        full = used + run >= ppb
        if for_gc:
            self._gc_used = used + run
            if full:
                self._gc_block = None
        else:
            self._host_used = used + run
            if full:
                self._host_block = None
        self._written[block] += run
        counter = self._program_counter + run
        self._stamp[block] = counter - 1
        self._program_counter = counter
        return block * ppb + used, run

    def _take_free_block(self, *, for_gc: bool) -> int:
        free = self._free
        if for_gc:
            # GC may dip into the reserve; an empty pool here means the
            # geometry cannot make progress at all.
            if not free:
                raise FlashFullError(
                    "flash device full: GC needs a free block and the "
                    "reserve is exhausted",
                    self.live_pages, self.spec.total_pages,
                )
        else:
            reserve = self.spec.gc_reserve_blocks
            guard = 0
            while len(free) <= reserve:
                self._collect_one()
                guard += 1
                if guard > 2 * self._nblocks:
                    raise DeviceError(
                        "flash GC made no net progress after "
                        f"{guard} collections (spec {self.spec})"
                    )
        block = free.popleft()
        self.device.registry.set_gauge(GAUGE_FREE_BLOCKS, len(free))
        return block

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def _collect_one(self) -> None:
        """Relocate one victim block's live pages and erase it.

        The relocation I/O is charged *before* any mapping mutation: if
        a fault plan injects a crash during the GC read or write, the
        table is untouched and every old mapping is still valid.  During
        the install loop each page's old slot is cleared only after its
        new slot is filled.
        """
        victim = self._pick_victim()
        ppb = self._ppb
        base = victim * ppb
        page_owner = self.page_owner
        live = [
            ppn
            for ppn in range(base, base + self._written[victim])
            if page_owner[ppn] is not None
        ]
        registry = self.device.registry
        registry.add(CTR_COLLECTIONS)
        if live:
            nbytes = len(live) * self.spec.page_bytes
            self.device.read(nbytes, GC_READ, sequential=True)
            self.device.write(nbytes, GC_WRITE, sequential=True)
            valid = self._valid
            owner_pages = self.owner_pages
            moved = 0
            while moved < len(live):
                first, run = self._claim(len(live) - moved, for_gc=True)
                batch = live[moved : moved + run]
                entries = [page_owner[ppn] for ppn in batch]
                page_owner[first : first + run] = entries
                for new_ppn, (owner, index) in enumerate(entries, first):
                    owner_pages[owner][index] = new_ppn
                for ppn in batch:
                    page_owner[ppn] = None
                valid[first // ppb] += run
                valid[victim] -= run
                moved += run
            self.bytes_programmed += nbytes
            registry.add_many(
                [
                    (CTR_PAGES_PROGRAMMED, len(live)),
                    (CTR_GC_PAGES, len(live)),
                    (CTR_BYTES_PROGRAMMED, nbytes),
                ]
            )
        self._erase(victim)

    def _erase(self, block: int) -> None:
        self._written[block] = 0
        self._valid[block] = 0
        self.erase_counts[block] += 1
        self.blocks_erased += 1
        self._free.append(block)
        registry = self.device.registry
        registry.add(CTR_ERASES)
        registry.set_gauge(GAUGE_FREE_BLOCKS, len(self._free))
        registry.set_gauge(GAUGE_TOTAL_ERASE, self.blocks_erased)
        if self.erase_counts[block] > registry.gauge(GAUGE_MAX_ERASE, 0):
            registry.set_gauge(GAUGE_MAX_ERASE, self.erase_counts[block])
        if self.spec.erase_us:
            self.device.clock.advance(self.spec.erase_us)
            registry.add(CTR_ERASE_TIME_US, self.spec.erase_us)

    def _pick_victim(self) -> int:
        """Choose the block to collect; raise when nothing is reclaimable."""
        written = self._written
        valid = self._valid
        stamp = self._stamp
        ppb = self._ppb
        now = self._program_counter
        greedy = self.spec.gc_policy == "greedy"
        best = -1
        best_score = 0.0
        for block in range(self._nblocks):
            w = written[block]
            # Skip free blocks (written == 0) and the open blocks still
            # accepting programs.
            if w == 0 or block == self._host_block or block == self._gc_block:
                continue
            invalid = w - valid[block]
            if invalid <= 0:
                continue
            if greedy:
                score = float(invalid)
            elif valid[block] == 0:
                # Fully-stale block: infinite benefit, zero cost.
                score = float("inf")
            else:
                u = valid[block] / ppb
                score = (now - stamp[block]) * (1.0 - u) / (2.0 * u)
            # Strict > with ascending iteration keeps ties deterministic
            # (lowest block id wins).
            if best < 0 or score > best_score:
                best = block
                best_score = score
        if best < 0:
            raise FlashFullError(
                "flash device full: no block has invalid pages to reclaim",
                self.live_pages, self.spec.total_pages,
            )
        return best

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def max_erase_count(self) -> int:
        return max(self.erase_counts)

    def check_invariants(self) -> None:
        """Verify the mapping table; raise :class:`DeviceError` on damage.

        Called by ``DB.check_invariants`` after crash recovery (and by
        the property suite directly): the forward and reverse maps must
        agree page-for-page, per-block counters and the live-page and
        stream-pending running totals must match a recount,
        valid + invalid + free pages must tile the geometry exactly, and
        the free pool must hold only fully-erased, unique blocks.
        """
        ppb = self._ppb
        page_owner = self.page_owner
        live_total = 0
        for owner, pages in self.owner_pages.items():
            for index, ppn in enumerate(pages):
                entry = page_owner[ppn]
                if entry != (owner, index):
                    raise DeviceError(
                        f"FTL mapping damaged: owner {owner!r} page "
                        f"{index} points at ppn {ppn} whose reverse "
                        f"entry is {entry!r}"
                    )
            live_total += len(pages)
        if live_total != self.live_pages:
            raise DeviceError(
                f"live-page counter {self.live_pages} != recount {live_total}"
            )
        pending_total = sum(self._stream_pending.values())
        if pending_total != self.stream_pending_bytes:
            raise DeviceError(
                f"stream-pending counter {self.stream_pending_bytes} "
                f"!= recount {pending_total}"
            )
        reverse_live = sum(1 for entry in page_owner if entry is not None)
        if reverse_live != live_total:
            raise DeviceError(
                f"FTL mapping damaged: {reverse_live} live reverse "
                f"entries vs {live_total} forward pages"
            )
        total_written = 0
        for block in range(self._nblocks):
            base = block * ppb
            recount = sum(
                1 for ppn in range(base, base + ppb) if page_owner[ppn] is not None
            )
            if recount != self._valid[block]:
                raise DeviceError(
                    f"block {block}: valid counter {self._valid[block]} "
                    f"!= recount {recount}"
                )
            if not 0 <= self._valid[block] <= self._written[block] <= ppb:
                raise DeviceError(
                    f"block {block}: counters out of range "
                    f"(valid={self._valid[block]}, "
                    f"written={self._written[block]}, ppb={ppb})"
                )
            if self.erase_counts[block] < 0:
                raise DeviceError(f"block {block}: negative erase count")
            total_written += self._written[block]
        # valid + invalid + free == capacity (written = valid + invalid).
        free_pages = self.spec.total_pages - total_written
        if free_pages < 0:
            raise DeviceError("written pages exceed geometry capacity")
        free_set = set(self._free)
        if len(free_set) != len(self._free):
            raise DeviceError("free pool contains duplicate blocks")
        for block in free_set:
            if self._written[block] or self._valid[block]:
                raise DeviceError(f"free block {block} is not erased")
        for open_block in (self._host_block, self._gc_block):
            if open_block is not None and open_block in free_set:
                raise DeviceError(f"open block {open_block} is in the free pool")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlashTranslationLayer(blocks={self._nblocks}, "
            f"free={len(self._free)}, live_pages={self.live_pages}, "
            f"erased={self.blocks_erased})"
        )
