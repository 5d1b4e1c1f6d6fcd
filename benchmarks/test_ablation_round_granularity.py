"""Ablation — the compaction-round granularity distribution.

The mechanism behind both of the paper's headline results is the size of
one compaction round (equation (3)): UDC merges one upper file with
O(fan_out) lower files; LDC merges one lower file with ~one file's worth
of slices.  This ablation measures the per-round byte distribution
directly — median, P99 and maximum round size for each policy on the same
workload — making the granularity claim a number rather than an argument.
"""

from repro.harness.experiments import BOTH_POLICIES
from repro.harness.report import format_table, paper_row
from repro.harness.runner import build_db
from repro.workload import WorkloadGenerator, rwb

from conftest import run_once


def _round_distribution(ops, keys):
    results = {}
    policies = list(BOTH_POLICIES) + [("Tiered", "tiered")]
    spec = rwb(num_operations=ops, key_space=keys)
    for name, policy in policies:
        db = build_db(policy)
        generator = WorkloadGenerator(spec)
        for operation in generator.preload_operations():
            db.put(operation.key, operation.value)
        for operation in generator.operations():
            if operation.kind == "put":
                db.put(operation.key, operation.value)
            else:
                db.get(operation.key)
        rounds = sorted(db.round_bytes)

        def percentile(pct: float) -> int:
            index = min(len(rounds) - 1, max(0, int(pct / 100 * len(rounds)) - 1))
            return rounds[index] if rounds else 0

        results[name] = {
            "rounds": len(rounds),
            "p50": percentile(50),
            "p99": percentile(99),
            "max": rounds[-1] if rounds else 0,
        }
    return results


def test_ablation_round_granularity(benchmark, bench_ops, bench_keys):
    out = run_once(benchmark, lambda: _round_distribution(bench_ops, bench_keys))
    rows = [
        (
            name,
            data["rounds"],
            round(data["p50"] / 1024, 1),
            round(data["p99"] / 1024, 1),
            round(data["max"] / 1024, 1),
        )
        for name, data in out.items()
    ]
    print()
    print(
        format_table(
            ["policy", "rounds", "median KiB", "p99 KiB", "max KiB"],
            rows,
            title="Ablation — per-round compaction size distribution (RWB):",
        )
    )
    udc, ldc, tiered = out["UDC"], out["LDC"], out["Tiered"]
    print(paper_row("LDC round vs UDC round (eq. 3)", "O(1) vs O(fan_out) files",
                    f"p99 {ldc['p99'] / 1024:.0f} vs {udc['p99'] / 1024:.0f} KiB"))

    # The granularity ordering the paper's analysis predicts:
    # LDC rounds are the smallest, tiered's the largest.
    assert ldc["p99"] < udc["p99"]
    assert ldc["max"] <= udc["max"]
    assert tiered["max"] > udc["max"]
    # LDC compensates with more (small) rounds.
    assert ldc["rounds"] > udc["rounds"]
