"""Measurement harness: runner, latency recording, reports, experiments."""

from .latency import (
    PAPER_PERCENTILES,
    LatencyRecorder,
    LatencyTimeline,
    TimelinePoint,
)
from .report import format_table, mib, paper_row
from .runner import RunResult, build_db, run_workload
from .timeseries import StateSample, StateSampler
from . import experiments

__all__ = [
    "LatencyRecorder",
    "LatencyTimeline",
    "TimelinePoint",
    "PAPER_PERCENTILES",
    "RunResult",
    "run_workload",
    "build_db",
    "StateSampler",
    "StateSample",
    "format_table",
    "mib",
    "paper_row",
    "experiments",
]
