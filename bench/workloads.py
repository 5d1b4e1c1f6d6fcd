"""The four benchmark workloads: what each runs and why.

Every workload uses the paper's record shape (16 B keys, 1 KB values, Table
III mixes) and ``LSMConfig()`` defaults — 64 KB memtable and SSTable, fan-out
10, WAL on, identical flush policy for both compaction policies.  Sizes are
set so that one repeat (set-up plus measured phase, UDC and LDC) costs about
2-3 CPU-seconds on a 2-core sandbox; ``BENCHMARK.json`` carries the one-line
reason for each workload and ``bench/README.md`` the long form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.lsm.config import LSMConfig
from repro.serve import ServeSpec
from repro.ssd import ENTERPRISE_PCIE, DeviceConfig, FlashSpec
from repro.workload.spec import WorkloadSpec, ro, rwb, scn_wh, wo

KIB = 1024
MIB = 1024 * KIB

#: Compaction policies compared on identical inputs, in canonical order.
POLICIES = ("udc", "ldc")

#: Sub-seeds pooled into one run's virtual-time metrics (see run.py).
SUB_SEEDS = 3

#: ``--smoke`` divides every operation count and key space by this.
SMOKE_DIVISOR = 20

#: Offered rates of the open-loop workload, ops per simulated second.  The
#: middle one is the headline rate that the end-to-end metrics are read at.
SERVE_RATES = (8_000, 16_000, 32_000)
HEADLINE_RATE = 16_000
SLO_US = 2_000.0

#: Per-layer cells that must read exactly 0 off the open-loop workload: the
#: bypass assertions that keep the workload design honest as code moves.
_NO_SERVING = (
    "serve.calls_per_op", "sched.calls_per_op", "ssd.flash.calls_per_op")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, engine configuration, drive mode."""

    name: str
    make_spec: Callable[..., WorkloadSpec]
    operations: int
    key_space: int
    preload: bool
    config: LSMConfig
    profile: object = ENTERPRISE_PCIE
    #: False = closed loop with one client; True = open-loop Poisson arrivals.
    open_loop: bool = False
    #: ``fill`` also crashes the store and re-verifies every acknowledged write.
    crash_check: bool = False
    spec_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Per-layer metrics this workload is designed to leave idle (asserted).
    idle_cells: Tuple[str, ...] = ()

    def spec(self, seed: int, smoke: bool = False) -> WorkloadSpec:
        divisor = SMOKE_DIVISOR if smoke else 1
        keys = max(1, self.key_space // divisor)
        return self.make_spec(
            num_operations=max(1, self.operations // divisor),
            key_space=keys,
            preload_keys=keys if self.preload else 0,
            seed=seed,
            **dict(self.spec_overrides),
        )

    def serve_spec(self, seed: int, rate: float) -> Optional[ServeSpec]:
        if not self.open_loop:
            return None
        return ServeSpec(
            arrival="poisson",
            rate_ops_s=rate,
            queue_depth=128,
            slo_us=SLO_US,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Write-only random fill: memtable, WAL, flush and merge do nearly
        # all the work and the read path none.  60k puts over 20k keys give
        # ~950 flushes and 2-3k compaction rounds per policy.
        Workload(
            name="fill",
            make_spec=wo,
            operations=60_000,
            key_space=20_000,
            preload=False,
            config=LSMConfig(),
            crash_check=True,
            idle_cells=_NO_SERVING + ("lsm.iterators.calls_per_op",),
        ),
        # Read-only lookups against ~17 MB of preloaded data with a 256 KB
        # block cache (hit rate ~1-2%): the larger-than-cache case.  No
        # flush or compaction runs in the measured phase.
        Workload(
            name="read",
            make_spec=ro,
            operations=50_000,
            key_space=16_500,
            preload=True,
            config=LSMConfig(block_cache_bytes=256 * KIB),
            idle_cells=_NO_SERVING
            + ("udc.compaction_rounds", "ldc.compaction_rounds"),
        ),
        # 70% puts, 30% 100-record scans: range merges through
        # lsm.iterators beside live flushes and compactions.
        Workload(
            name="scan_mix",
            make_spec=scn_wh,
            operations=6_000,
            key_space=8_000,
            preload=True,
            config=LSMConfig(block_cache_bytes=256 * KIB),
            idle_cells=_NO_SERVING,
        ),
        # The composed stack: open-loop Poisson arrivals, one background
        # compaction thread, flash/FTL mounted, and a block cache the whole
        # store fits in — beside ``read``'s 1-2%.  Zipf 1.0, 50% puts.
        Workload(
            name="serve_stack",
            make_spec=rwb,
            operations=15_000,
            key_space=10_000,
            preload=True,
            config=LSMConfig(bg_threads=1, block_cache_bytes=64 * MIB),
            profile=DeviceConfig(
                profile=ENTERPRISE_PCIE,
                flash=FlashSpec(logical_bytes=96 * MIB, over_provisioning=0.07),
            ),
            open_loop=True,
            spec_overrides=(("distribution", "zipf"), ("zipf_constant", 1.0)),
        ),
    )
}
