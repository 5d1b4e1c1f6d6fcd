"""Shared helpers for the benchmarks.

``test_paper_claims.py`` runs every figure of ``repro.cli.FIGURES`` and
checks it against ``claims.py``; the ``test_ablation_*`` / model files are
bespoke.  Benchmarks measure *virtual* device time (the paper's quantity);
pytest-benchmark's wall-clock numbers only say how long a run took.

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


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
