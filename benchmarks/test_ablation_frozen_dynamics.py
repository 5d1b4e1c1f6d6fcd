"""Ablation — frozen-region dynamics over virtual time.

Fig. 15 reports the *final* space consumption; this ablation watches the
frozen region breathe during the run.  The §III-D argument is that
delayed garbage collection is safe because the region is self-limiting:
links add frozen bytes, merges recycle them, and the safety valve forces
merges if accumulation outpaces recycling.  We sample engine state every
few hundred operations and check the claim over the whole trajectory, not
just at the end.
"""

import random

from repro import DB
from repro.harness.report import format_table, paper_row
from repro.harness.timeseries import StateSampler

from conftest import run_once


def _trace(ops, keys):
    db = DB(policy="ldc")
    sampler = StateSampler(db, every_ops=max(1, ops // 50))
    rng = random.Random(5)
    value = b"v" * 1024
    for _ in range(ops):
        db.put(str(rng.randrange(keys)).zfill(16).encode(), value)
        sampler.tick()
    return db, sampler


def test_ablation_frozen_dynamics(benchmark, bench_ops, bench_keys):
    db, sampler = run_once(benchmark, lambda: _trace(bench_ops, bench_keys))
    rows = []
    for sample in sampler.samples[:: max(1, len(sampler.samples) // 15)]:
        live = sum(sample.level_bytes)
        rows.append(
            (
                f"{sample.virtual_time_us / 1e6:.2f}s",
                round(live / 2**20, 2),
                round(sample.frozen_bytes / 2**20, 2),
                f"{sample.frozen_bytes / max(live, 1):.0%}",
                sample.frozen_files,
                sample.linked_tables,
            )
        )
    print()
    print(
        format_table(
            ["virtual time", "live MiB", "frozen MiB", "frozen/live", "frozen files", "linked tables"],
            rows,
            title="Ablation — frozen-region trajectory (write-only, LDC):",
        )
    )
    region = db.policy.movement.frozen
    recycled = region.total_recycled
    frozen_ever = region.total_frozen_ever
    print(paper_row("delayed GC recycles", "every file, eventually",
                    f"{recycled}/{frozen_ever} frozen files recycled during run"))

    cap = db.config.frozen_space_limit_ratio
    slack = 8 * db.config.sstable_target_bytes
    # The valve holds at every sample, not just at the end.
    for sample in sampler.samples:
        live = sum(sample.level_bytes)
        assert sample.frozen_bytes <= cap * max(live, 1) + slack
    # Recycling keeps pace: most frozen files ever created were reclaimed.
    assert recycled > 0.5 * frozen_ever
    # The region is dynamic, not monotone growth.
    series = sampler.series("frozen_bytes")
    assert any(later < earlier for earlier, later in zip(series, series[1:]))