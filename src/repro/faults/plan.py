"""Fault plans: deterministic schedules of injected failures.

A :class:`FaultPlan` is pure data — *which* I/Os fail and *how* — consumed
by :class:`~repro.faults.device.FaultStage`, the fault-injection stage of
the :class:`~repro.ssd.device.SimulatedSSD` charge routine.  Four
fault families are supported, mirroring the failure modes an SSD-backed
key-value store must survive (PAPER.md §III's recovery invariants):

* **crash points** — abort at the Nth I/O (globally, or the Nth I/O of one
  category such as ``wal_write``), optionally leaving a *torn* prefix of
  the aborted write on the media;
* **read corruption** — the Nth read delivers flipped bits, surfaced to
  decode paths as a CRC XOR mask;
* **transient errors** — the Nth I/O fails ``k`` times before succeeding,
  absorbed by the device's bounded retry/backoff policy;
* the **retry policy** itself (attempt budget and exponential backoff).

Plans are deterministic by construction: the same plan against the same
workload produces the same failure at the same virtual time, which is what
lets the crash-point enumeration harness (:mod:`repro.faults.crashtest`)
replay a workload thousands of times with one knob moving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigError

#: Default XOR mask applied to a corrupted block's CRC — any non-zero mask
#: models at least one flipped bit in the delivered payload.
DEFAULT_CORRUPTION_MASK = 0x00010000


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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry/backoff absorbing transient I/O errors.

    Each failed attempt charges ``backoff_us * multiplier**attempt`` of
    virtual time (the driver's retry delay) before the request is retried;
    after ``max_attempts`` failures the error escapes as a
    :class:`~repro.errors.PersistentIOError`.
    """

    max_attempts: int = 3
    backoff_us: float = 100.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ConfigError("max_attempts must be positive")
        if self.backoff_us < 0:
            raise ConfigError("backoff_us must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be at least 1")

    def backoff_for_attempt(self, attempt: int) -> float:
        """Virtual-time delay before retry number ``attempt`` (0-based)."""
        return self.backoff_us * self.multiplier**attempt


class FaultPlan:
    """A deterministic schedule of injected faults.

    Build fluently::

        plan = (
            FaultPlan()
            .crash_at(120, category=WAL_WRITE, torn_fraction=0.5)
            .corrupt_read(7)
            .transient(30, failures=2)
        )

    Crash points are *one-shot*: once fired they disarm, so the recovery
    that follows (which performs WAL-replay I/O through the same device)
    does not immediately crash again.  Corruption and transient entries
    are likewise consumed when they trigger.
    """

    def __init__(self, retry: Optional[RetryPolicy] = None) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self._crashes: List[CrashSpec] = []
        #: read index -> XOR mask delivered for that read.
        self._corrupt_reads: Dict[int, int] = {}
        #: global I/O index -> remaining transient failures.
        self._transients: Dict[int, int] = {}

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

    def transient(self, at_io: int, failures: int = 1) -> "FaultPlan":
        """Fail the ``at_io``-th I/O ``failures`` times before it succeeds."""
        if at_io <= 0:
            raise ConfigError("at_io is 1-based and must be positive")
        if failures <= 0:
            raise ConfigError("failures must be positive")
        self._transients[at_io] = failures
        return self

    # ------------------------------------------------------------------
    # Consumption (called by FaultStage)
    # ------------------------------------------------------------------
    def take_crash(
        self, io_index: int, category: str, category_index: int
    ) -> Optional[CrashSpec]:
        """The armed crash matching this I/O, disarmed; None otherwise."""
        for position, spec in enumerate(self._crashes):
            if spec.category is None:
                if spec.at_io == io_index:
                    return self._crashes.pop(position)
            elif spec.category == category and spec.at_io == category_index:
                return self._crashes.pop(position)
        return None

    def take_corruption(self, read_index: int) -> int:
        """XOR mask for this read (0 if intact), consumed."""
        return self._corrupt_reads.pop(read_index, 0)

    def take_transient(self, io_index: int) -> int:
        """Remaining transient failure count for this I/O, consumed."""
        return self._transients.pop(io_index, 0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_corruptions(self) -> int:
        return len(self._corrupt_reads)

    @property
    def pending_transients(self) -> int:
        return len(self._transients)

    def is_exhausted(self) -> bool:
        """True once every scheduled fault has been injected."""
        return not (self._crashes or self._corrupt_reads or self._transients)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(crashes={len(self._crashes)}, "
            f"corrupt_reads={len(self._corrupt_reads)}, "
            f"transients={len(self._transients)})"
        )
