"""``FaultStage``: the fault-injection stage of ``SimulatedSSD``.

A device built with a :class:`~repro.faults.plan.FaultPlan`
(``SimulatedSSD(fault_plan=...)``, or ``DB(fault_plan=...)``) carries one
of these as ``device.faults``; :meth:`~repro.ssd.device.SimulatedSSD.read`
/ ``write`` / ``read_runs`` call its hooks around every charged request
(docs/DEVICE.md shows where they sit among the other stages).  The stage
counts every request (globally and per category) and consults the plan:

* an armed **crash point** raises :class:`~repro.errors.SimulatedCrash`
  *before* the charge — the crashed I/O never reaches the media, except
  for an optional torn prefix recorded on the exception;
* a scheduled **transient error** fails the request ``k`` times, charging
  the retry policy's backoff to the virtual clock each time, then lets it
  through (or raises :class:`~repro.errors.PersistentIOError` once the
  attempt budget is spent);
* a scheduled **read corruption** lets the read be charged normally but
  parks an XOR mask that the decode path picks up via
  :meth:`~repro.ssd.device.SimulatedSSD.consume_read_corruption` and
  checks against the block CRC.

Everything injected is observable: ``faults.*`` counters land in the
shared metrics registry and each injection emits a trace event
(``fault_crash`` / ``fault_transient`` / ``fault_corruption``).
``faults.corruptions_missed`` deserves a note — it counts masks that were
*delivered but never consumed*, i.e. a decode path that read a corrupted
block without verifying it.  The corruption tests assert it stays zero.

An empty plan is transparent: the hooks only bump integer counters, so a
run costs the same virtual time and leaves the same registry as one on a
device without the stage.
"""

from __future__ import annotations

from typing import Dict

from .plan import FaultPlan
from ..errors import PersistentIOError, SimulatedCrash, TransientIOError
from ..obs.events import EV_FAULT_CORRUPTION, EV_FAULT_CRASH, EV_FAULT_TRANSIENT

# Registry keys for injected-fault accounting.
CTR_CRASHES = "faults.crashes_injected"
CTR_TORN_BYTES = "faults.torn_bytes"
CTR_TRANSIENTS = "faults.transient_errors"
CTR_RETRIES = "faults.retries"
CTR_BACKOFF_US = "faults.backoff_time_us"
CTR_PERSISTENT = "faults.persistent_errors"
CTR_CORRUPTED = "faults.corrupted_blocks"
CTR_CORRUPTIONS_MISSED = "faults.corruptions_missed"


class FaultStage:
    """Fault-plan state and hooks for one device's charge routine.

    ``device`` supplies the clock, registry and tracer the injections are
    charged to and reported through.
    """

    def __init__(self, plan: FaultPlan, device) -> None:
        self.plan = plan
        self._device = device
        #: Total charged I/Os so far (reads + writes), 1-based at test time.
        self.io_count = 0
        #: Total charged reads so far.
        self.read_count = 0
        #: Per-category I/O counts.
        self.category_counts: Dict[str, int] = {}
        #: XOR mask parked by the most recent corrupted read; handed to the
        #: decode path exactly once via :meth:`consume_mask`.
        self._pending_mask = 0

    def before_io(self, category: str, nbytes: int, is_write: bool) -> None:
        """Count one request; crash or absorb transient errors if scheduled."""
        device = self._device
        # An unconsumed mask from an earlier read means some decode path
        # used corrupted bytes without verifying them — record the escape.
        if self._pending_mask:
            self._pending_mask = 0
            device.registry.add(CTR_CORRUPTIONS_MISSED)

        self.io_count += 1
        cat_index = self.category_counts.get(category, 0) + 1
        self.category_counts[category] = cat_index

        crash = self.plan.take_crash(self.io_count, category, cat_index)
        if crash is not None:
            torn = crash.torn_bytes(nbytes) if is_write else 0
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

        failures = self.plan.take_transient(self.io_count)
        if failures:
            self._absorb_transients(failures, category, nbytes)

    def after_read(self, category: str, nbytes: int) -> int:
        """Count one charged read; park and return its corruption mask (0 = intact)."""
        self.read_count += 1
        mask = self.plan.take_corruption(self.read_count)
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

    def _absorb_transients(self, failures: int, category: str, nbytes: int) -> None:
        """Retry through ``failures`` scheduled errors or give up."""
        device = self._device
        registry = device.registry
        retry = self.plan.retry
        for attempt in range(failures):
            registry.add(CTR_TRANSIENTS)
            if device.tracer.active:
                device.tracer.emit(
                    EV_FAULT_TRANSIENT,
                    io_index=self.io_count,
                    category=category,
                    nbytes=nbytes,
                    attempt=attempt + 1,
                )
            if attempt + 1 >= retry.max_attempts:
                registry.add(CTR_PERSISTENT)
                raise PersistentIOError(
                    f"I/O #{self.io_count} ({category}) still failing after "
                    f"{retry.max_attempts} attempts"
                ) from TransientIOError(
                    f"transient failure {attempt + 1} on I/O #{self.io_count}"
                )
            backoff = retry.backoff_for_attempt(attempt)
            device.clock.advance(backoff)
            registry.add(CTR_RETRIES)
            registry.add(CTR_BACKOFF_US, backoff)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultStage(io_count={self.io_count}, plan={self.plan!r})"
