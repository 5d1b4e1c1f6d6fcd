"""Deterministic fault injection for crash-consistency testing.

Two layers:

* :class:`FaultPlan` (this package's core) — a fault schedule that,
  mounted on a device (``SimulatedSSD(fault_plan=...)``), executes
  itself from the device's charge routine: crash points with torn WAL
  tails, and read corruption, all counted under ``faults.*`` in the
  metrics registry and traced as ``fault_*`` events.
* :mod:`repro.faults.crashtest` — the crash-point enumeration harness
  behind ``repro crashtest``: run a workload once to count I/Os, then
  replay it crashing at every I/O boundary, recovering, and checking the
  durability/atomicity oracle each time.

``crashtest`` is deliberately *not* re-exported here: it imports the DB
layer, which itself imports this package, and keeping the heavy module
out of ``repro.faults`` breaks that cycle.
"""

from .plan import FaultPlan

__all__ = ["FaultPlan"]
