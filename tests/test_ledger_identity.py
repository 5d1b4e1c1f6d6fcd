"""Every counter and gauge a run emits, pinned to the parent's digests.

The one-ledger rewrite deleted ``EngineStats``, ``IOStats``,
``CategoryStats`` and the cache's counter properties and made the registry
the only thing the engine writes.  The licence for that deletion is this
file: each cell pins (``tests/pins.json``, ``ledger_identity/<cell>``)
``(sorted(counters.items()), sorted(gauges.items()), elapsed_us)`` — so a
dropped or renamed key, an ``int`` that became a ``float`` (``3`` vs
``3.0`` differ in ``repr``), or a float sum re-associated anywhere in the
engine moves a pin.

The matrix is the four registered policies x {plain, ``bg_threads=1``,
mounted flash, empty fault plan}, one tiny run each, plus one open-loop
serve.
``tests/test_metrics_catalogue.py`` re-runs the same matrix to check that
docs/METRICS.md documents every key it emits.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

import pytest

from repro import DB, DeviceConfig, FlashSpec, available_policies
from repro.faults.plan import FaultPlan
from repro.harness.runner import execute_operations
from repro.lsm.config import LSMConfig
from repro.obs.snapshot import MetricsSnapshot
from repro.serve import ServeSpec, serve_workload
from repro.ssd.profile import ENTERPRISE_PCIE
from repro.workload import spec as workloads
from repro.workload.ycsb import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_RMW,
    OP_SCAN,
    Operation,
)

from .pins import check

KIB = 1024
POLICIES = ("delayed", "ldc", "tiered", "udc")
STACKS = ("plain", "sched", "flash", "plan")
CELLS = [f"{policy}/{stack}" for policy in POLICIES for stack in STACKS]
CELLS.append("serve/poisson-1")
PIN_CASES = [f"ledger_identity/{cell}" for cell in CELLS]

#: Erase blocks of eight files over a capacity the store nearly fills, so
#: every policy's mix collects garbage (``flash.gc_*``, the GC categories).
FLASH = FlashSpec(page_bytes=512, pages_per_block=64, logical_bytes=224 * KIB)

KEYS = 1_200
PRELOAD = 600
OPERATIONS = 1_500


def small(bg_threads: int = 0) -> LSMConfig:
    """~100-byte records in 512-byte blocks: the mix flushes ~30 times."""
    return LSMConfig(
        memtable_bytes=4 * KIB,
        sstable_target_bytes=4 * KIB,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=16 * KIB,
        max_levels=6,
        block_cache_bytes=8 * KIB,
        bg_threads=bg_threads,
    )


def make_key(index: int) -> bytes:
    return b"%08d" % index


def mixed_operations(operations: int = OPERATIONS, seed: int = 17) -> Iterator[Operation]:
    """55% put / 5% delete / 5% rmw / 20% get / 15% scan of 5-120."""
    rng = random.Random(seed)
    for index in range(operations):
        key = make_key(rng.randrange(KEYS))
        roll = rng.random()
        value = b"v%06d" % index + b"x" * rng.randrange(40, 90)
        if roll < 0.55:
            yield Operation(OP_PUT, key, value)
        elif roll < 0.60:
            yield Operation(OP_DELETE, key)
        elif roll < 0.65:
            yield Operation(OP_RMW, key, value)
        elif roll < 0.85:
            yield Operation(OP_GET, key)
        else:
            yield Operation(OP_SCAN, key, None, rng.randrange(5, 121))


def run_cell(policy: str, stack: str) -> Tuple[MetricsSnapshot, float]:
    """One tiny run: (closing snapshot, measured virtual time).

    The preload is *not* reset away: load-phase keys (the first flushes,
    the WAL stream) are part of what is pinned.
    """
    db = DB(
        config=small(bg_threads=1 if stack == "sched" else 0),
        policy=policy,
        profile=DeviceConfig(flash=FLASH) if stack == "flash" else ENTERPRISE_PCIE,
        fault_plan=FaultPlan() if stack == "plan" else None,
    )
    rng = random.Random(5)
    for index in range(PRELOAD):
        db.put(make_key(index * 2), b"p" * rng.randrange(40, 90))
    result = execute_operations(db, mixed_operations(), workload_name="ledger")
    db.check_invariants()
    return result.metrics, result.elapsed_us


def _tiny_spec():
    return workloads.rwb(num_operations=1_500, key_space=600, value_bytes=100)


@lru_cache(maxsize=None)
def run_serve():
    """One open-loop Poisson serve over the composed slow stack."""
    return serve_workload(
        _tiny_spec(),
        "ldc",
        ServeSpec(arrival="poisson", rate_ops_s=14_000.0, queue_depth=16),
        config=small(bg_threads=1),
        profile=DeviceConfig(flash=FlashSpec(logical_bytes=512 * KIB)),
    )


def payload(metrics: MetricsSnapshot, elapsed_us: float) -> tuple:
    """What a cell pins: every counter and gauge, and the virtual time."""
    return (
        sorted(metrics.counters.items()),
        sorted(metrics.gauges.items()),
        elapsed_us,
    )


@lru_cache(maxsize=None)
def matrix() -> Dict[str, Tuple[MetricsSnapshot, float]]:
    """Every cell of the pin-first matrix, keyed like :data:`CELLS`."""
    cells: Dict[str, Tuple[MetricsSnapshot, float]] = {}
    for policy in POLICIES:
        for stack in STACKS:
            cells[f"{policy}/{stack}"] = run_cell(policy, stack)
    served = run_serve()
    cells["serve/poisson-1"] = (served.metrics, served.elapsed_us)
    return cells


def emitted_snapshots() -> List[MetricsSnapshot]:
    """Every snapshot the matrix produces (what the metrics catalogue has
    to document)."""
    return [metrics for metrics, _ in matrix().values()]


def test_the_matrix_covers_every_registered_policy() -> None:
    assert tuple(sorted(available_policies())) == POLICIES
    assert list(matrix()) == CELLS
    assert len(CELLS) == len(POLICIES) * len(STACKS) + 1


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_ledger_is_what_the_parent_wrote(cell: str) -> None:
    metrics, elapsed_us = matrix()[cell]
    check(f"ledger_identity/{cell}", payload(metrics, elapsed_us),
          elapsed_us=elapsed_us, write_amp=metrics.write_amplification)


def test_cells_exercise_what_they_pin() -> None:
    """A digest of an empty ledger pins nothing: the cells do real work."""
    cells = matrix()
    for policy in POLICIES:
        counters = cells[f"{policy}/plain"][0].counters
        assert counters["engine.flush_count"] > 15, policy
        assert counters["engine.compaction_count"] >= 4, policy
        assert counters["engine.scans"] > 0 and counters["engine.gets"] > 0
        assert counters["cache.hits"] > 0 and counters["cache.evictions"] > 0
        assert cells[f"{policy}/sched"][0].counters["sched.tasks_enqueued"] > 0
        assert cells[f"{policy}/flash"][0].counters["flash.gc_collections"] > 0
        # An empty fault plan is transparent (tests/test_device_stack.py).
        assert cells[f"{policy}/plan"] == cells[f"{policy}/plain"], policy
    assert cells["ldc/plain"][0].counters["engine.link_count"] > 0
    assert cells["serve/poisson-1"][0].counters["sched.tasks_completed"] > 0
