"""Ablation — the block cache's interaction with LDC's read overhead.

LevelDB ships an LRU block cache; the paper's Fig. 11 discussion relies on
it ("Zipf distribution usually leads to higher hit ratios of in-memory
cache") and §III-C argues cached Bloom filters/indexes make LDC's
practical read amplification near UDC's.  This ablation measures the
cache's effect on a read-heavy Zipfian workload: hit ratio, block reads
and throughput, with and without a cache, for both policies.

Expected shape: the cache absorbs most hot-block reads (high hit ratio),
lifting both policies' read-heavy throughput, and narrowing whatever gap
LDC's slice checks open on reads.
"""

from repro import DB
from repro.harness.experiments import BOTH_POLICIES
from repro.harness.runner import run_workload
from repro.harness.report import format_table, paper_row
from repro.lsm.config import LSMConfig
from repro.workload import rh

from conftest import run_once


def _measure(ops, keys):
    results = {}
    spec = rh(
        num_operations=ops,
        key_space=keys,
        distribution="zipf",
        zipf_constant=0.99,
    )
    for cache_kib in (0, 256):
        config = LSMConfig(block_cache_bytes=cache_kib * 1024)
        for policy_name, policy in BOTH_POLICIES:
            result = run_workload(spec, policy, config=config)
            results[(cache_kib, policy_name)] = result
    return results


def test_ablation_block_cache(benchmark, bench_ops, bench_keys):
    out = run_once(benchmark, lambda: _measure(bench_ops, bench_keys))
    rows = []
    for (cache_kib, policy), result in out.items():
        rows.append(
            (
                f"{cache_kib}KiB" if cache_kib else "disabled",
                policy,
                round(result.throughput_ops_s),
                result.sstable_blocks_read,
                round(result.mean_latency_us, 1),
            )
        )
    print()
    print(
        format_table(
            ["cache", "policy", "ops/s", "device block reads", "avg latency us"],
            rows,
            title="Ablation — block cache on a Zipfian read-heavy mix:",
        )
    )

    udc_off = out[(0, "UDC")]
    udc_on = out[(256, "UDC")]
    ldc_off = out[(0, "LDC")]
    ldc_on = out[(256, "LDC")]
    print(paper_row("cache absorbs hot reads", "§IV-E mechanism",
                    f"block reads {udc_off.sstable_blocks_read} -> {udc_on.sstable_blocks_read} (UDC)"))

    # The cache removes device block reads and lifts throughput for both.
    assert udc_on.sstable_blocks_read < udc_off.sstable_blocks_read
    assert ldc_on.sstable_blocks_read < ldc_off.sstable_blocks_read
    assert udc_on.throughput_ops_s > udc_off.throughput_ops_s
    assert ldc_on.throughput_ops_s > ldc_off.throughput_ops_s
    # §III-C: with caching, LDC's read-side overhead must not leave it
    # behind UDC even on a read-heavy mix.
    assert ldc_on.throughput_ops_s > 0.9 * udc_on.throughput_ops_s