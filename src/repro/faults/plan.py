"""The fault injector: a deterministic fault schedule and its device hooks.

A :class:`FaultPlan` says *which* I/Os fail and *how*; mounted on a
:class:`~repro.ssd.device.SimulatedSSD` (``SimulatedSSD(fault_plan=...)``,
or ``DB(fault_plan=...)``) it is ``device.faults``, and the device's
:meth:`~repro.ssd.device.SimulatedSSD.read` / ``write`` / ``read_runs``
call its hooks around every charged request (docs/DEVICE.md shows where
they sit among the other stages).  Two fault families are supported,
the failure modes the LDC recovery invariants must survive (PAPER.md
§III):

* **crash points** — abort at the Nth I/O (globally, or the Nth I/O of one
  category such as ``wal_write``), optionally leaving a *torn* prefix of
  the aborted write on the media.  :meth:`FaultPlan.before_io` raises
  :class:`~repro.errors.SimulatedCrash` *before* the charge, so the
  crashed I/O never reaches the media beyond that prefix;
* **read corruption** — the Nth read delivers flipped bits.  The read is
  charged normally, and :meth:`FaultPlan.after_read` parks an XOR mask
  that the decode path picks up via
  :meth:`~repro.ssd.device.SimulatedSSD.consume_read_corruption` and
  checks against the block CRC.

Everything injected is observable: ``faults.*`` counters land in the
device's metrics registry and each injection emits a trace event
(``fault_crash`` / ``fault_corruption``).  ``faults.corruptions_missed``
deserves a note — it counts masks that were *delivered but never
consumed*, i.e. a decode path that read a corrupted block without
verifying it.  The corruption tests assert it stays zero.

Plans are deterministic by construction: the same plan against the same
workload produces the same failure at the same virtual time, which is what
lets the crash-point enumeration harness (:mod:`repro.faults.crashtest`)
replay a workload thousands of times with one knob moving.  An empty plan
is transparent: the hooks only bump integer counters, so a run costs the
same virtual time and leaves the same registry as one on a device without
a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError, SimulatedCrash
from ..obs.events import EV_FAULT_CORRUPTION, EV_FAULT_CRASH

#: Default XOR mask applied to a corrupted block's CRC — any non-zero mask
#: models at least one flipped bit in the delivered payload.
DEFAULT_CORRUPTION_MASK = 0x00010000

# Registry keys for injected-fault accounting.
CTR_CRASHES = "faults.crashes_injected"
CTR_TORN_BYTES = "faults.torn_bytes"
CTR_CORRUPTED = "faults.corrupted_blocks"
CTR_CORRUPTIONS_MISSED = "faults.corruptions_missed"


@dataclass(frozen=True)
class CrashSpec:
    """One armed crash point.

    Parameters
    ----------
    at_io:
        1-based index of the I/O to abort.  Counts every charged device
        request when ``category`` is None, otherwise only requests of that
        category.
    category:
        Optional device category filter (e.g. ``wal_write``,
        ``flush_write``, ``compaction_read``).
    torn_fraction:
        Fraction of the aborted *write* that still reaches the media
        (0.0 = clean abort, 1.0 = the write completed just before the
        crash).  Ignored for reads.
    """

    at_io: int
    category: Optional[str] = None
    torn_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.at_io <= 0:
            raise ConfigError("crash points are 1-based: at_io must be positive")
        if not 0.0 <= self.torn_fraction <= 1.0:
            raise ConfigError("torn_fraction must lie in [0, 1]")

    def torn_bytes(self, nbytes: int) -> int:
        """Bytes of an ``nbytes`` write surviving on media after the crash."""
        return int(nbytes * self.torn_fraction)


class FaultPlan:
    """A deterministic schedule of injected faults, and its device hooks.

    Build fluently::

        plan = FaultPlan().crash_at(120, category=WAL_WRITE, torn_fraction=0.5)
        plan.corrupt_read(7)

    Crash points are *one-shot*: once fired they disarm, so the recovery
    that follows (which performs WAL-replay I/O through the same device)
    does not immediately crash again.  Corruption entries are likewise
    consumed when they trigger.

    A plan counts the I/Os of the one device it is mounted on
    (:meth:`mount`); mounting it on a second device is a
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(self) -> None:
        self._crashes: List[CrashSpec] = []
        #: read index -> XOR mask delivered for that read.
        self._corrupt_reads: Dict[int, int] = {}
        self._device = None
        #: Total charged I/Os so far (reads + writes), 1-based at test time.
        self.io_count = 0
        #: Total charged reads so far.
        self.read_count = 0
        #: Per-category I/O counts.
        self.category_counts: Dict[str, int] = {}
        #: XOR mask parked by the most recent corrupted read; handed to the
        #: decode path exactly once via :meth:`consume_mask`.
        self._pending_mask = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def crash_at(
        self,
        at_io: int,
        category: Optional[str] = None,
        torn_fraction: float = 0.0,
    ) -> "FaultPlan":
        """Arm a crash point at the ``at_io``-th I/O (see :class:`CrashSpec`)."""
        self._crashes.append(CrashSpec(at_io, category, torn_fraction))
        return self

    def corrupt_read(
        self, read_index: int, mask: int = DEFAULT_CORRUPTION_MASK
    ) -> "FaultPlan":
        """Deliver flipped bits on the ``read_index``-th read (1-based)."""
        if read_index <= 0:
            raise ConfigError("read_index is 1-based and must be positive")
        if mask == 0:
            raise ConfigError("a corruption mask of 0 flips no bits")
        self._corrupt_reads[read_index] = mask
        return self

    def mount(self, device) -> "FaultPlan":
        """Attach to ``device``, whose clock, registry and tracer it reports to."""
        if self._device is not None:
            raise ConfigError(
                "a FaultPlan counts one device's I/Os; build a new plan "
                "for another device"
            )
        self._device = device
        return self

    @property
    def pending_corruptions(self) -> int:
        return len(self._corrupt_reads)

    # ------------------------------------------------------------------
    # Device hooks
    # ------------------------------------------------------------------
    def before_io(self, category: str, nbytes: int, is_write: bool) -> None:
        """Count one request; raise :class:`SimulatedCrash` if a crash is armed."""
        # An unconsumed mask from an earlier read means some decode path
        # used corrupted bytes without verifying them — record the escape.
        if self._pending_mask:
            self._pending_mask = 0
            self._device.registry.add(CTR_CORRUPTIONS_MISSED)

        self.io_count += 1
        cat_index = self.category_counts.get(category, 0) + 1
        self.category_counts[category] = cat_index

        for position, spec in enumerate(self._crashes):
            if spec.category is None:
                if spec.at_io != self.io_count:
                    continue
            elif spec.category != category or spec.at_io != cat_index:
                continue
            del self._crashes[position]
            device = self._device
            torn = spec.torn_bytes(nbytes) if is_write else 0
            device.registry.add(CTR_CRASHES)
            if torn:
                device.registry.add(CTR_TORN_BYTES, torn)
            if device.tracer.active:
                device.tracer.emit(
                    EV_FAULT_CRASH,
                    io_index=self.io_count,
                    category=category,
                    nbytes=nbytes,
                    torn_bytes=torn,
                )
            raise SimulatedCrash(self.io_count, category, torn_bytes=torn)

    def after_read(self, category: str, nbytes: int) -> int:
        """Count one charged read; park and return its corruption mask (0 = intact)."""
        self.read_count += 1
        if not self._corrupt_reads:
            return 0
        mask = self._corrupt_reads.pop(self.read_count, 0)
        if mask:
            device = self._device
            self._pending_mask = mask
            device.registry.add(CTR_CORRUPTED)
            if device.tracer.active:
                device.tracer.emit(
                    EV_FAULT_CORRUPTION,
                    read_index=self.read_count,
                    category=category,
                    nbytes=nbytes,
                    mask=mask,
                )
        return mask

    def consume_mask(self) -> int:
        """Return the parked XOR mask (0 if the last read was intact)."""
        mask = self._pending_mask
        self._pending_mask = 0
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(io_count={self.io_count}, crashes={len(self._crashes)}, "
            f"corrupt_reads={len(self._corrupt_reads)})"
        )
