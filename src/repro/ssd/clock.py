"""Virtual clock for the simulated storage stack.

The whole reproduction runs in *virtual time*: the engine never reads the
wall clock.  Instead, every I/O charged to the simulated SSD and every fixed
CPU cost advances a shared :class:`SimClock`.  Latencies and throughput are
then derived from virtual timestamps, which makes every experiment
deterministic and independent of the speed of the Python interpreter — the
substitution that lets a Python implementation reproduce the paper's
latency-oriented evaluation (see DESIGN.md §1).

Time is kept in **microseconds** as a float, matching the unit the paper
reports tail latencies in (e.g. "469.66 us").

Concurrency (``repro.sched``) builds on two additions here:

* **Capture mode** — between :meth:`SimClock.begin_capture` and
  :meth:`SimClock.end_capture` the clock freezes and every charge — an
  ``advance`` (a CPU item) or a device transfer (an I/O item, appended
  by the device) — is *diverted* into a buffer of ``(kind, duration,
  bytes)`` items instead of moving time.  The scheduler runs every
  compaction round under capture: the round's logical effects
  (version-set mutations) apply immediately and atomically, while its
  time cost comes back as a list that background threads replay as
  block-granularity chunks — or, with no background thread, that is
  added back onto this clock at once, item by item: the same float
  additions inline charging makes.
* :class:`DeviceChannel` — the arbitration point between concurrent
  requesters of the one simulated device.  It is a single ``busy_until_us``
  horizon: background chunks push it forward, and foreground I/O arriving
  before the horizon waits (the wait *is* the compaction interference the
  paper's Fig. 1 measures).
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import DeviceError

#: Capture-item kinds: device transfer time vs CPU time.  IO items occupy
#: both a background thread and the device channel when replayed; CPU items
#: occupy only the thread, so CPU work overlaps device work across threads.
CAPTURE_IO = "io"
CAPTURE_CPU = "cpu"

#: One captured time charge: ``(kind, duration_us, nbytes)`` where
#: ``nbytes`` is 0 for CPU items.
CaptureItem = Tuple[str, float, int]


class SimClock:
    """A monotonically advancing virtual clock measured in microseconds.

    The clock only ever moves forward.  Components advance it by calling
    :meth:`advance`; observers read it with :meth:`now`.

    Example
    -------
    >>> clock = SimClock()
    >>> clock.advance(12.5)
    12.5
    >>> clock.now()
    12.5
    """

    __slots__ = ("_now_us", "_capture")

    def __init__(self, start_us: float = 0.0) -> None:
        if start_us < 0:
            raise DeviceError(f"clock cannot start at negative time {start_us!r}")
        self._now_us = float(start_us)
        self._capture: List[CaptureItem] | None = None

    def now(self) -> float:
        """Return the current virtual time in microseconds."""
        return self._now_us

    def advance(self, delta_us: float) -> float:
        """Move the clock forward by ``delta_us`` and return the new time.

        Raises :class:`DeviceError` if asked to move backwards, which would
        indicate a bookkeeping bug in a caller.

        During a capture (see :meth:`begin_capture`) the charge is diverted
        into the capture buffer as CPU time and the clock stays frozen.
        """
        if delta_us < 0:
            raise DeviceError(f"cannot advance clock by negative delta {delta_us!r}")
        if self._capture is not None:
            if delta_us:
                self._capture.append((CAPTURE_CPU, delta_us, 0))
            return self._now_us
        self._now_us += delta_us
        return self._now_us

    def advance_to(self, timestamp_us: float) -> float:
        """Advance the clock to an absolute timestamp (no-op if in the past).

        Useful for modelling "wait until the ongoing compaction finishes":
        the waiter jumps to the completion timestamp if it is later than now.
        Meaningless (and therefore an error) during capture — deferred time
        has no absolute target.
        """
        if self._capture is not None:
            raise DeviceError("advance_to is not allowed during a clock capture")
        if timestamp_us > self._now_us:
            self._now_us = timestamp_us
        return self._now_us

    # ------------------------------------------------------------------
    # Capture mode (used by repro.sched)
    # ------------------------------------------------------------------
    @property
    def capturing(self) -> bool:
        """True while a capture is active (time charges are being diverted)."""
        return self._capture is not None

    def begin_capture(self) -> None:
        """Freeze the clock and start diverting charges into a buffer.

        Captures do not nest: a second ``begin_capture`` raises, because
        nested ownership of the diverted items would be ambiguous.
        """
        if self._capture is not None:
            raise DeviceError("clock capture already active")
        self._capture = []

    def charged_since(self, start_us: float) -> float:
        """Time charged since ``start_us``, captured charges included.

        Outside a capture this is the clock delta.  Inside one it is the
        delta the clock will show once the buffered items are added back
        onto it in order from ``start_us`` (the capture instant): a
        compaction round's duration, equal bit for bit to the inline
        charge with no background thread, and the round's captured debt
        with them.
        """
        now = self._now_us
        if self._capture is not None:
            for _, duration, _ in self._capture:
                now += duration
        return now - start_us

    def end_capture(self) -> List[CaptureItem]:
        """Stop capturing and return the diverted ``(kind, us, bytes)`` items."""
        if self._capture is None:
            raise DeviceError("no clock capture active")
        items = self._capture
        self._capture = None
        return items

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now_us:.3f}us)"


class DeviceChannel:
    """Bandwidth arbiter of one simulated device shared by many requesters.

    The simulated SSD serves one transfer at a time; the channel records
    the virtual timestamp until which the device is occupied.  Background
    compaction chunks (``repro.sched``) extend the horizon as they replay;
    a foreground request arriving while the horizon is in the future first
    waits (``wait_us``) and then occupies the device itself.  With no
    background thread the device has no channel and this class is never
    consulted — the zero-cost default.
    """

    __slots__ = ("busy_until_us",)

    def __init__(self) -> None:
        self.busy_until_us = 0.0

    def wait_us(self, now_us: float) -> float:
        """How long a request arriving at ``now_us`` must wait."""
        remaining = self.busy_until_us - now_us
        return remaining if remaining > 0 else 0.0

    def occupy_until(self, timestamp_us: float) -> None:
        """Extend the busy horizon to ``timestamp_us`` (never backwards)."""
        if timestamp_us > self.busy_until_us:
            self.busy_until_us = timestamp_us

    def release(self, now_us: float) -> None:
        """Drop any future occupancy (crash semantics: in-flight I/O dies)."""
        if self.busy_until_us > now_us:
            self.busy_until_us = now_us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeviceChannel(busy_until={self.busy_until_us:.3f}us)"
