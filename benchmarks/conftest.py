"""Shared helpers for the benchmarks.

``test_paper_claims.py`` runs every claimed figure of ``repro.cli.FIGURES``
and checks it against ``claims.py``, the one test file here.  Benchmarks
measure *virtual* device time (the paper's quantity); how long a run takes
on the host is ``bench/``'s measurement.

Scale knobs (environment variables):

* ``REPRO_BENCH_OPS``   — measured operations per run (default 60000)
* ``REPRO_BENCH_KEYS``  — key-space size (default 20000)

Larger values deepen the LSM-tree and sharpen the UDC/LDC contrast at the
cost of wall-clock time.
"""

from __future__ import annotations

import os

import pytest

DEFAULT_OPS = int(os.environ.get("REPRO_BENCH_OPS", "60000"))
DEFAULT_KEYS = int(os.environ.get("REPRO_BENCH_KEYS", "20000"))


@pytest.fixture(scope="session")
def bench_ops() -> int:
    return DEFAULT_OPS


@pytest.fixture(scope="session")
def bench_keys() -> int:
    return DEFAULT_KEYS
