"""Deterministic fault injection for crash-consistency testing.

Two layers:

* :class:`FaultPlan` / :class:`FaultStage` (this package's core) — a
  pure-data fault schedule and the stage of the device's charge routine
  that executes it (``SimulatedSSD(fault_plan=...)``): crash points,
  torn WAL tails, read corruption and transient I/O errors,
  all counted under ``faults.*`` in the metrics registry and traced as
  ``fault_*`` events.
* :mod:`repro.faults.crashtest` — the crash-point enumeration harness
  behind ``repro crashtest``: run a workload once to count I/Os, then
  replay it crashing at every I/O boundary, recovering, and checking the
  durability/atomicity oracle each time.

``crashtest`` is deliberately *not* re-exported here: it imports the DB
layer, which itself imports this package, and keeping the heavy module
out of ``repro.faults`` breaks that cycle.
"""

from .device import FaultStage
from .plan import DEFAULT_CORRUPTION_MASK, CrashSpec, FaultPlan, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultStage",
    "CrashSpec",
    "RetryPolicy",
    "DEFAULT_CORRUPTION_MASK",
]
