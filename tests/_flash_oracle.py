"""The FTL's page-at-a-time programming, kept as a test oracle.

``FlashTranslationLayer._program_owner`` used to make one
``_next_page`` call per page it programmed — claim the slot, bump the
block's written count and stamp, install the reverse entry, append the
forward one — and GC relocated through the same per-page routine.
``src/`` now programs a run of pages into the open block with slice
assignments and relocates a victim's live pages the same way; the
per-page routines live on here, verbatim, as the reference
``tests/test_stack_equivalence.py`` pair-runs against: mapping tables,
block counters, stamps, the free pool, every ``flash.*`` counter and
gauge, after every write and trim, crash points inside GC included.

:class:`OracleFTL` is the FTL with its programming swapped for the
parent's; trim, victim choice and erase are shared with the class under
test.
"""

from repro.ssd.flash import (
    CTR_BYTES_PROGRAMMED,
    CTR_COLLECTIONS,
    CTR_GC_PAGES,
    CTR_HOST_PAGES,
    CTR_PAGES_PROGRAMMED,
    GAUGE_LIVE_PAGES,
    FlashTranslationLayer,
)
from repro.ssd.metrics import GC_READ, GC_WRITE


class OracleFTL(FlashTranslationLayer):
    """``FlashTranslationLayer`` programming page by page, as it used to."""

    @classmethod
    def install(cls, device) -> "OracleFTL":
        """Turn a fresh device's FTL into the oracle (it adds no state)."""
        device.flash.__class__ = cls
        return device.flash

    def _program_owner(self, owner, npages: int) -> None:
        pages = self.owner_pages.get(owner)
        if pages is None:
            pages = self.owner_pages[owner] = []
        page_owner = self.page_owner
        valid = self._valid
        ppb = self._ppb
        for _ in range(npages):
            ppn = self._next_page(for_gc=False)
            page_owner[ppn] = (owner, len(pages))
            pages.append(ppn)
            valid[ppn // ppb] += 1
            self.live_pages += 1
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

    def _next_page(self, *, for_gc: bool) -> int:
        ppb = self._ppb
        if for_gc:
            if self._gc_block is None:
                self._gc_block = self._take_free_block(for_gc=True)
                self._gc_used = 0
            block, used = self._gc_block, self._gc_used
            self._gc_used = used + 1
            if self._gc_used >= ppb:
                self._gc_block = None
        else:
            if self._host_block is None:
                self._host_block = self._take_free_block(for_gc=False)
                self._host_used = 0
            block, used = self._host_block, self._host_used
            self._host_used = used + 1
            if self._host_used >= ppb:
                self._host_block = None
        self._written[block] += 1
        self._stamp[block] = self._program_counter
        self._program_counter += 1
        return block * ppb + used

    def _collect_one(self) -> None:
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
            for ppn in live:
                owner, index = page_owner[ppn]
                new_ppn = self._next_page(for_gc=True)
                page_owner[new_ppn] = (owner, index)
                owner_pages[owner][index] = new_ppn
                valid[new_ppn // ppb] += 1
                page_owner[ppn] = None
                valid[victim] -= 1
            self.bytes_programmed += nbytes
            registry.add_many(
                [
                    (CTR_PAGES_PROGRAMMED, len(live)),
                    (CTR_GC_PAGES, len(live)),
                    (CTR_BYTES_PROGRAMMED, nbytes),
                ]
            )
        self._erase(victim)


def ftl_state(flash) -> tuple:
    """Everything the FTL holds, for ``==`` between two instances."""
    registry = flash.device.registry
    return (
        list(flash.page_owner),
        {owner: list(pages) for owner, pages in flash.owner_pages.items()},
        list(flash._valid),
        list(flash._written),
        list(flash._stamp),
        list(flash.erase_counts),
        list(flash._free),
        flash._host_block, flash._host_used,
        flash._gc_block, flash._gc_used,
        flash._program_counter,
        dict(flash._stream_pending),
        flash.live_pages, flash.stream_pending_bytes,
        flash.bytes_programmed, flash.blocks_erased,
        list(registry.counters().items()),  # insertion order too
        list(registry.gauges().items()),
        flash.device.clock.now(),
    )
