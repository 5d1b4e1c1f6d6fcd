"""Exception hierarchy for the LDC reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class.  The hierarchy mirrors the subsystems: configuration
problems, engine (LSM) violations, device-model misuse, and workload
specification errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DeviceError(ReproError):
    """The simulated storage device was used incorrectly."""


class FlashFullError(DeviceError):
    """The flash layer has no reclaimable space left for a write.

    Raised by the FTL's allocator when garbage collection cannot free a
    block because live data fills the physical array; surfaces unchanged
    through ``DB.put``.  An under-sized :class:`~repro.ssd.flash.FlashSpec`
    is the usual cause.

    Attributes
    ----------
    live_pages:
        Valid pages mapped when the allocation failed.
    capacity_pages:
        Physical pages in the geometry (reserve blocks included).
    """

    def __init__(self, message: str, live_pages: int, capacity_pages: int) -> None:
        super().__init__(
            f"{message} ({live_pages} live of {capacity_pages} physical pages)"
        )
        self.live_pages = live_pages
        self.capacity_pages = capacity_pages


class EngineError(ReproError):
    """An LSM engine invariant was violated or misused."""


class CorruptionError(EngineError):
    """A block failed CRC verification on a decode path.

    Raised instead of returning silently wrong data when the (simulated)
    device delivered flipped bits — the contract the fault-injection
    corruption tests assert.
    """


class SimulatedCrash(ReproError):
    """Control-flow signal for an injected crash point.

    Raised by :meth:`~repro.faults.plan.FaultPlan.before_io` when the armed
    crash point is reached: the in-flight I/O aborts and the process is
    considered dead.  Not an engine bug — harnesses catch it and drive
    :meth:`~repro.lsm.db.DB.crash_and_recover`.

    Attributes
    ----------
    io_index:
        1-based global index of the aborted I/O.
    category:
        Device category of the aborted I/O (e.g. ``wal_write``).
    torn_bytes:
        How many bytes of the aborted write reached the media before the
        crash (0 for a clean abort; only meaningful for writes).
    """

    def __init__(self, io_index: int, category: str, torn_bytes: int = 0) -> None:
        super().__init__(
            f"simulated crash at I/O #{io_index} ({category}, "
            f"{torn_bytes} bytes torn onto media)"
        )
        self.io_index = io_index
        self.category = category
        self.torn_bytes = torn_bytes


class ClosedError(EngineError):
    """An operation was issued against a closed database."""


class CompactionError(EngineError):
    """A compaction policy produced an inconsistent plan or result."""


class UnknownPolicyError(ConfigError):
    """A compaction policy name was not found in the policy registry.

    Raised by :func:`repro.lsm.compaction.spec.get_spec` (and every
    consumer that resolves policy names through it — CLI, harness,
    crashtest) so one typed error carries both the offending
    name and the full list of valid names.

    Attributes
    ----------
    name:
        The unknown policy name as supplied by the caller.
    known:
        Sorted tuple of every registered policy name.
    """

    def __init__(self, name: str, known: tuple) -> None:
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown compaction policy {name!r}; "
            f"known policies: {', '.join(self.known)}"
        )


class WorkloadError(ReproError):
    """A workload specification is malformed."""
