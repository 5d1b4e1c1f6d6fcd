"""The simulated SSD: converts engine I/O into virtual time and wear.

The engine performs *logical* I/O (real bytes move through Python data
structures); this device converts each logical transfer into a virtual-time
charge drawn from an :class:`~repro.ssd.profile.SSDProfile` and counts it in
the metrics registry.  This is the substitution documented in
DESIGN.md: the paper measured a Memblaze Q520, we measure a parameterised
model of one.

Service time of one request of ``n`` bytes::

    overhead * (sequential_discount if sequential else 1) + n / bandwidth

Reads and writes use their own overheads and bandwidths, preserving the
read/write asymmetry the paper's analysis builds on.

One device, one charge path: :meth:`SimulatedSSD.read`, ``write`` and
``read_runs`` are the only place an I/O is priced, charged and counted.
Whatever else sits on the device — a fault plan, the flash/FTL layer, the
scheduler's bandwidth channel, a trace sink — is an optional *stage* of
that one routine, each behind one attribute test, in a fixed order::

    size check, cost
      -> fault plan: crash point                       (before the charge)
      -> FTL host_write     (non-GC writes; GC relocations re-enter here)
      -> clock: channel wait + occupy | in-place add | capture divert
      -> device.<direction>.<category>.{ops,bytes,time_us} counters
      -> fault plan: corruption take                   (reads)
      -> trace tap: device_read / device_write event

docs/DEVICE.md and docs/FAULTS.md describe the stages.
"""

from __future__ import annotations

from .clock import CAPTURE_IO, DeviceChannel, SimClock
from .flash import GC_WRITE, DeviceConfig, FlashSpec, FlashTranslationLayer
from .metrics import category_keys
from .profile import ENTERPRISE_PCIE, SSDProfile
from ..errors import DeviceError
from ..faults.plan import FaultPlan
from ..obs.events import EV_DEVICE_READ, EV_DEVICE_WRITE
from ..obs.registry import MetricsRegistry
from ..obs.snapshot import MetricsSnapshot
from ..obs.tracer import Tracer


class SimulatedSSD:
    """A virtual-time flash device shared by one database instance.

    Parameters
    ----------
    profile:
        Device performance parameters; defaults to the enterprise PCIe
        profile that mirrors the paper's testbed.  A
        :class:`~repro.ssd.flash.DeviceConfig` is also accepted and
        carries both the profile and an optional flash geometry — the
        form every ``profile=`` parameter up the stack forwards here.
    clock:
        The virtual clock to advance.  A fresh clock is created when omitted
        so standalone device tests need no setup.
    registry:
        The metrics registry backing the I/O counters; a private one is
        created when omitted.  The DB passes its shared registry so device
        counters appear in ``db.metrics()`` and reset with everything else.
    tracer:
        Event tracer for per-transfer ``device_read``/``device_write``
        events; an inert (sink-less) tracer is created when omitted.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`; mounted as the
        fault-injection stage (:attr:`faults`) that executes the plan's
        crashes and read corruption.
    """

    def __init__(
        self,
        profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE,
        clock: SimClock | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        flash: FlashSpec | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if isinstance(profile, DeviceConfig):
            if flash is None:
                flash = profile.flash
            profile = profile.profile
        self.profile = profile
        # Cost constants, hoisted: the profile is frozen, and these are the
        # expressions the formula above spells out, so the same floats.
        self._read_overhead = profile.read_overhead_us
        self._read_seq_overhead = (
            profile.read_overhead_us * profile.sequential_discount
        )
        self._read_per_byte = profile.read_us_per_byte
        self._write_overhead = profile.write_overhead_us
        self._write_seq_overhead = (
            profile.write_overhead_us * profile.sequential_discount
        )
        self._write_per_byte = profile.write_us_per_byte
        self.clock = clock if clock is not None else SimClock()
        self.registry = registry if registry is not None else MetricsRegistry()
        # The raw counter dict behind the per-I/O bumps; registry.reset
        # zeroes values in place, so the reference stays valid.
        self._counters = self.registry._counters
        #: category -> its (ops, bytes, time_us) counter keys, built on
        #: the category's first I/O.
        self._read_keys: "dict[str, tuple[str, str, str]]" = {}
        self._write_keys: "dict[str, tuple[str, str, str]]" = {}
        self.tracer = tracer if tracer is not None else Tracer(clock=self.clock)
        #: Optional fault-injection stage (:mod:`repro.faults`); ``None``
        #: when no plan was given.  An empty plan is transparent.
        self.faults: FaultPlan | None = (
            fault_plan.mount(self) if fault_plan is not None else None
        )
        #: Optional flash layer (:mod:`repro.ssd.flash`); ``None`` keeps
        #: the device byte-identical to the flash-less simulator.
        self.flash: FlashTranslationLayer | None = (
            FlashTranslationLayer(flash, device=self) if flash is not None else None
        )
        #: Bandwidth arbiter attached by a compaction scheduler with
        #: background threads (:mod:`repro.sched`).  ``None`` otherwise:
        #: with no background thread nothing else competes for the device
        #: and arbitration is skipped entirely.
        self.channel: DeviceChannel | None = None

    # ------------------------------------------------------------------
    # Cost queries (no side effects) — used by planners and the model layer.
    # ------------------------------------------------------------------
    def read_cost_us(self, nbytes: int, *, sequential: bool = False) -> float:
        """Service time of a read request without performing it."""
        if nbytes < 0:
            raise DeviceError(f"I/O size must be non-negative, got {nbytes}")
        overhead = self._read_seq_overhead if sequential else self._read_overhead
        return overhead + nbytes * self._read_per_byte

    def write_cost_us(self, nbytes: int, *, sequential: bool = False) -> float:
        """Service time of a write request without performing it."""
        if nbytes < 0:
            raise DeviceError(f"I/O size must be non-negative, got {nbytes}")
        overhead = self._write_seq_overhead if sequential else self._write_overhead
        return overhead + nbytes * self._write_per_byte

    # ------------------------------------------------------------------
    # Charged operations — advance the clock and update statistics.
    # ------------------------------------------------------------------
    def read(self, nbytes: int, category: str, *, sequential: bool = False) -> float:
        """Charge a read of ``nbytes`` to ``category``; return elapsed µs.

        The stages run in the order of the module docstring.  A fault
        plan's crash point raises before anything is charged; a scheduled
        corruption is charged like any read and parks a mask for
        :meth:`consume_read_corruption`.
        """
        if nbytes < 0:
            raise DeviceError(f"I/O size must be non-negative, got {nbytes}")
        overhead = self._read_seq_overhead if sequential else self._read_overhead
        elapsed = overhead + nbytes * self._read_per_byte
        faults = self.faults
        if faults is not None:
            faults.before_io(category, nbytes, False)
        clock = self.clock
        capture = clock._capture
        if capture is not None:
            capture.append((CAPTURE_IO, elapsed, nbytes))
        elif self.channel is None:
            clock._now_us += elapsed
        else:
            self._charge_shared(elapsed)
        try:
            ops_key, bytes_key, time_key = self._read_keys[category]
        except KeyError:
            ops_key, bytes_key, time_key = self._stream_keys("read", category)
        counters = self._counters
        counters[ops_key] = counters.get(ops_key, 0) + 1
        counters[bytes_key] = counters.get(bytes_key, 0) + nbytes
        counters[time_key] = counters.get(time_key, 0) + elapsed
        if faults is not None:
            faults.after_read(category, nbytes)
        if self.tracer.active:
            self.tracer.emit(
                EV_DEVICE_READ,
                category=category,
                nbytes=nbytes,
                elapsed_us=elapsed,
                sequential=sequential,
            )
        return elapsed

    def write(
        self,
        nbytes: int,
        category: str,
        *,
        sequential: bool = False,
        owner=None,
        stream: bool = False,
    ) -> float:
        """Charge a write of ``nbytes`` to ``category``; return elapsed µs.

        With a flash layer attached, the write is first mapped into page
        programs tagged with ``owner`` (``stream=True`` appends into the
        owner's partial-page fill buffer — the WAL path); that mapping
        step may trigger garbage collection, whose relocation I/O
        re-enters :meth:`read` / :meth:`write` (so it passes the fault
        hooks and the channel like any request) and is charged before
        this write's own service time.  GC's relocation writes (category
        ``gc_write``) skip the mapping step — the FTL programs those
        pages itself.
        """
        if nbytes < 0:
            raise DeviceError(f"I/O size must be non-negative, got {nbytes}")
        overhead = self._write_seq_overhead if sequential else self._write_overhead
        elapsed = overhead + nbytes * self._write_per_byte
        faults = self.faults
        if faults is not None:
            faults.before_io(category, nbytes, True)
        flash = self.flash
        if flash is not None and category != GC_WRITE:
            flash.host_write(nbytes, category, owner=owner, stream=stream)
        clock = self.clock
        capture = clock._capture
        if capture is not None:
            capture.append((CAPTURE_IO, elapsed, nbytes))
        elif self.channel is None:
            clock._now_us += elapsed
        else:
            self._charge_shared(elapsed)
        try:
            ops_key, bytes_key, time_key = self._write_keys[category]
        except KeyError:
            ops_key, bytes_key, time_key = self._stream_keys("write", category)
        counters = self._counters
        counters[ops_key] = counters.get(ops_key, 0) + 1
        counters[bytes_key] = counters.get(bytes_key, 0) + nbytes
        counters[time_key] = counters.get(time_key, 0) + elapsed
        if self.tracer.active:
            self.tracer.emit(
                EV_DEVICE_WRITE,
                category=category,
                nbytes=nbytes,
                elapsed_us=elapsed,
                sequential=sequential,
            )
        return elapsed

    def read_runs(
        self,
        run_sizes: "list[int]",
        category: str,
        *,
        sequential: bool = False,
    ) -> int:
        """Charge one read per block run; return how many runs were charged.

        The multi-read entry (compaction inputs).  Each run passes the
        same stages, in order, as the equivalent :meth:`read` would — so
        fault-plan indices, scheduler captures and the virtual timeline
        see the identical I/O sequence — but the counters are updated
        once per batch (integer sums; the float time counter accumulates
        left to right over the individual elapsed values, the per-run
        path's exact addition order) and the trace events follow the
        batch.  What was charged is recorded even when a crash
        point leaves the loop early.

        A run a scheduled corruption landed on ends the batch, so the
        count returned always names the one run that may carry a parked
        mask — the last one charged — and the caller's CRC verification
        of it raises before any later input is charged.
        """
        overhead = self._read_seq_overhead if sequential else self._read_overhead
        per_byte = self._read_per_byte
        faults = self.faults
        clock = self.clock
        elapsed_runs: "list[float]" = []
        push = elapsed_runs.append
        try:
            for nbytes in run_sizes:
                if nbytes < 0:
                    raise DeviceError(f"I/O size must be non-negative, got {nbytes}")
                elapsed = overhead + nbytes * per_byte
                if faults is not None:
                    faults.before_io(category, nbytes, False)
                capture = clock._capture
                if capture is not None:
                    capture.append((CAPTURE_IO, elapsed, nbytes))
                elif self.channel is None:
                    clock._now_us += elapsed
                else:
                    self._charge_shared(elapsed)
                push(elapsed)
                if faults is not None and faults.after_read(category, nbytes):
                    break
        finally:
            charged = len(elapsed_runs)
            if charged:
                sizes = run_sizes[:charged]
                ops_key, bytes_key, time_key = self._stream_keys("read", category)
                counters = self._counters
                counters[ops_key] = counters.get(ops_key, 0) + charged
                counters[bytes_key] = counters.get(bytes_key, 0) + sum(sizes)
                time_total = counters.get(time_key, 0)
                for elapsed in elapsed_runs:
                    time_total += elapsed
                counters[time_key] = time_total
                if self.tracer.active:
                    for nbytes, elapsed in zip(sizes, elapsed_runs):
                        self.tracer.emit(
                            EV_DEVICE_READ,
                            category=category,
                            nbytes=nbytes,
                            elapsed_us=elapsed,
                            sequential=sequential,
                        )
        return charged

    def _stream_keys(self, direction: str, category: str) -> "tuple[str, str, str]":
        """``category``'s counter keys, built and remembered on first use."""
        streams = self._read_keys if direction == "read" else self._write_keys
        keys = streams.get(category)
        if keys is None:
            keys = streams[category] = category_keys(direction, category)
        return keys

    def _charge_shared(self, elapsed: float) -> None:
        """The clock stage while the device is shared with background threads.

        A foreground request first waits out the attached
        :class:`~repro.ssd.clock.DeviceChannel`'s busy horizon — background
        compaction chunks in flight — and then occupies the device itself;
        the wait is recorded under ``sched.device_wait_us``.  (A charge
        inside a clock capture never gets here: it is diverted into the
        capture buffer, to be replayed by the scheduler.)
        """
        clock = self.clock
        channel = self.channel
        wait = channel.busy_until_us - clock._now_us
        if wait > 0:
            clock._now_us += wait
            self.registry.add("sched.device_wait_us", wait)
            self.registry.add("sched.device_waits", 1)
        clock._now_us += elapsed
        channel.occupy_until(clock._now_us)

    def trim(self, owner) -> None:
        """Invalidate every flash page tagged with ``owner``.

        The engine calls this when a tagged extent dies as a whole — an
        SSTable deleted after compaction, or the WAL reset after a
        flush.  Free on the plain (flash-less) device: dropped data
        costs nothing there, matching the pre-flash simulator exactly.
        Metadata only (no charged I/O), so no fault hook runs.
        """
        if self.flash is not None:
            self.flash.trim(owner)

    def consume_read_corruption(self) -> int:
        """XOR mask the last read's bit flips applied to its block CRC.

        Always 0 without a fault plan.  With one, a non-zero mask is
        returned exactly once per injected corruption; decode paths call
        this right after charging a read and verify the delivered
        checksum against the stored one, raising
        :class:`~repro.errors.CorruptionError` on mismatch.
        """
        faults = self.faults
        return faults.consume_mask() if faults is not None else 0

    # ------------------------------------------------------------------
    @property
    def wear_bytes(self) -> int:
        """Total bytes physically written to flash (endurance proxy).

        With a flash layer attached this is the programmed-page total
        (host pages + GC relocations, whole-page granularity) — the
        quantity erase counts follow.  Without one it falls back to the
        host byte total, the historical proxy.
        """
        if self.flash is not None:
            return self.flash.bytes_programmed
        return MetricsSnapshot.capture(
            self.registry, self.clock.now()
        ).total_bytes_written

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedSSD(profile={self.profile.name!r}, t={self.clock.now():.1f}us)"
