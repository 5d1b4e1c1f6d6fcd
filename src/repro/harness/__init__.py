"""Measurement harness: runner, latency recording, reports, experiments."""

from .latency import PAPER_PERCENTILES, LatencyRecorder, LatencyTimeline
from .report import format_table, mib
from .runner import RunResult, build_db, run_workload
from .timeseries import StateSampler
from . import experiments

__all__ = [
    "LatencyRecorder",
    "LatencyTimeline",
    "PAPER_PERCENTILES",
    "RunResult",
    "run_workload",
    "build_db",
    "StateSampler",
    "format_table",
    "mib",
    "experiments",
]
