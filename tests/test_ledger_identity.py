"""Every counter and gauge a run emits, pinned to the parent's digests.

The one-ledger rewrite (ISSUE 24) deleted ``EngineStats``, ``IOStats``,
``CategoryStats`` and the cache's counter properties and made the registry
the only thing the engine writes.  The licence for that deletion is this
file: the digests below were captured on the parent commit, *before* any
``src/`` edit, and every cell hashes
``repr((sorted(counters.items()), sorted(gauges.items()), elapsed_us))`` —
so a dropped or renamed key, an ``int`` that became a ``float`` (``3`` vs
``3.0`` differ in ``repr``), or a float sum re-associated anywhere in the
engine moves a literal.

The matrix is the four registered policies x {plain, ``bg_threads=1``,
mounted flash, empty fault plan}, one tiny unsharded run each, plus one
open-loop serve and the per-shard results of one 3-shard run.
``tests/test_metrics_catalogue.py`` re-runs the same matrix to check that
docs/METRICS.md documents every key it emits.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

import pytest

from repro import DB, DeviceConfig, FlashSpec, available_policies
from repro.faults.plan import FaultPlan
from repro.harness.runner import execute_operations
from repro.lsm.compaction.spec import get_spec
from repro.lsm.config import LSMConfig
from repro.obs.snapshot import MetricsSnapshot
from repro.serve import ServeSpec, serve_workload
from repro.shard.runner import run_sharded_workload
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

KIB = 1024
POLICIES = ("delayed", "ldc", "tiered", "udc")
STACKS = ("plain", "sched", "flash", "plan")

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
    """One tiny unsharded run: (closing snapshot, measured virtual time).

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
    """One open-loop two-tenant serve over the composed slow stack."""
    return serve_workload(
        _tiny_spec(),
        "ldc",
        ServeSpec(arrival="poisson", rate_ops_s=14_000.0, num_tenants=2,
                  queue_depth=16),
        config=small(bg_threads=1),
        profile=DeviceConfig(flash=FlashSpec(logical_bytes=512 * KIB)),
    )


@lru_cache(maxsize=None)
def run_sharded():
    """One 3-shard run (an LDC spec with a derived threshold)."""
    return run_sharded_workload(
        _tiny_spec(), get_spec("ldc").derive(threshold=5), num_shards=3,
        config=small(),
    )


def digest(metrics: MetricsSnapshot, elapsed_us: float) -> str:
    payload = repr((
        sorted(metrics.counters.items()),
        sorted(metrics.gauges.items()),
        elapsed_us,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


@lru_cache(maxsize=None)
def matrix() -> Dict[str, Tuple[MetricsSnapshot, float]]:
    """Every cell of the pin-first matrix, keyed like :data:`PINNED`."""
    cells: Dict[str, Tuple[MetricsSnapshot, float]] = {}
    for policy in POLICIES:
        for stack in STACKS:
            cells[f"{policy}/{stack}"] = run_cell(policy, stack)
    served = run_serve()
    cells["serve/poisson-2"] = (served.metrics, served.elapsed_us)
    sharded = run_sharded()
    for index, shard in enumerate(sharded.shard_results):
        cells[f"shard/{index}"] = (shard.metrics, shard.elapsed_us)
    return cells


def emitted_snapshots() -> List[MetricsSnapshot]:
    """Every snapshot the matrix produces, folds and namespaces included
    (what the metrics catalogue has to document)."""
    snapshots = [metrics for metrics, _ in matrix().values()]
    snapshots.append(run_serve().tenant_metrics())
    sharded = run_sharded()
    snapshots += [sharded.metrics, sharded.combined_metrics]
    return snapshots


#: Captured on the parent commit (PR 23's ``src/``) — see module docstring.
#: The ``*/sched`` cells and ``serve/poisson-2`` were re-pinned when
#: the memtable flush moved onto the scheduler's flush lane: the writer no
#: longer pays it (no ``engine.activity.flush``; it waits out an unfinished
#: previous flush), ``sched.*`` counts the flush tasks, and the shifted
#: timeline moves round captures.  The ``ldc/*``, ``serve/poisson-2`` and
#: ``shard/*`` cells (all LDC) were re-pinned when an LDC get began to stop
#: at the newest linked slice that holds the key: fewer Bloom probes and
#: user block reads, and with a thread the shorter reads move captures.
#: ``serve/poisson-2`` was re-pinned again when every operation began by
#: replaying the background work owed up to its start: chunks owed in an
#: idle gap run in the gap, so rounds finish sooner, more are captured
#: (47 compactions, not 42) and requests wait less for the channel.
#: The closed-loop cells did not move: there an operation starts where
#: the previous one's end-of-operation replay left the clock.
PINNED: Dict[str, str] = {
    "delayed/plain": "27821d007736444cbce05fb293f98245e93198efaa738e2e6d79d894db6a5e82",
    "delayed/sched": "aabcbe64d7cb2eeeb8267a3923f298c6265d059cf28dbc2d1d7c06792401ab8a",
    "delayed/flash": "c69d4e11a201499d8af61d1407dd9b995149392ebe18d5f123781b4ad3b60e56",
    "delayed/plan": "27821d007736444cbce05fb293f98245e93198efaa738e2e6d79d894db6a5e82",
    "ldc/plain": "a95094bd1d51aa544d2c1eee0753bf04360120332290109c43e95792a8e15e07",
    "ldc/sched": "2352e9bd68c85edb660d8eb187c6aff3c3d3f393856c82ec09bee56a3fa9dc8a",
    "ldc/flash": "0ac921ce0e7669f383365c6f20af0e2353447073c6295fc849dc8a2669adb75e",
    "ldc/plan": "a95094bd1d51aa544d2c1eee0753bf04360120332290109c43e95792a8e15e07",
    "tiered/plain": "a46fdbb0cef1fc208d3c8dbf894c0830fdeedf003fc543f584c8d6bfb565c106",
    "tiered/sched": "89c212c1cdfeeb961eec53f92124c919428d4b2e342582fddab957b8ffd9d9a7",
    "tiered/flash": "9b88b4654914d9081bfe42924caf28588a3018a69fe2c70c40f9272cbeb58105",
    "tiered/plan": "a46fdbb0cef1fc208d3c8dbf894c0830fdeedf003fc543f584c8d6bfb565c106",
    "udc/plain": "4610818ef00835dfc41f210d6a7ce0d02d224614ddd1df17259d5a1b53c62c35",
    "udc/sched": "fbcb444b582eba5a1688ad9db801194a647c555140650b0001f3db3d26272590",
    "udc/flash": "87fa65e1066475abe12f57fc26191189cb34a14a9a75f288db1b32b4f5e830ed",
    "udc/plan": "4610818ef00835dfc41f210d6a7ce0d02d224614ddd1df17259d5a1b53c62c35",
    "serve/poisson-2": "4686a92561a7b1975a659094b406025850f4757196f0db4d377e191fccc1cc08",
    "shard/0": "b59eafde3a3d8fffccbe0dbc06b8aa613358e66ffdb07e3b835c382aa702f70a",
    "shard/1": "31aa27e930e27e51b3786c4d5947cbbf16c427b27f05d92c3e96f92b76fc657b",
    "shard/2": "9ac996a47b35a23b409bfb28b1927f0d410ad9d98095d9280842b102be1f5073",
}


def test_the_matrix_covers_every_registered_policy() -> None:
    assert tuple(sorted(available_policies())) == POLICIES
    assert len(PINNED) == len(POLICIES) * len(STACKS) + 1 + 3


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_ledger_is_what_the_parent_wrote(cell: str) -> None:
    metrics, elapsed_us = matrix()[cell]
    assert digest(metrics, elapsed_us) == PINNED[cell], cell


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
    assert cells["serve/poisson-2"][0].counters["sched.tasks_completed"] > 0


if __name__ == "__main__":  # pragma: no cover - capture helper
    for name, (snap, elapsed) in matrix().items():
        print(f'    "{name}": "{digest(snap, elapsed)}",')
