"""Ablation — LDC transferred to a partitioned B-tree (§V).

The paper claims LDC generalises beyond LSM-trees: in a partitioned
B-tree, linking side-partition slices onto main-partition leaves "both
shrink[s] the granularity of data merging for smaller tail latency and
accumulate[s] more data in small partitions for less write amplification".

We run the same update stream through the classical eager absorption
(merge all side partitions into the whole main at once) and the LDC-style
linked absorption, and compare worst-case stalls, tail latency and write
amplification.
"""

import random

from repro.extras.partitioned_btree import EagerAbsorb, LinkedAbsorb, PartitionedBTree
from repro.harness.report import format_table, paper_row

from conftest import run_once


def _run_stream(policy, ops, key_space):
    tree = PartitionedBTree(
        policy=policy,
        buffer_bytes=8 * 1024,
        leaf_bytes=8 * 1024,
        max_side_partitions=4,
    )
    rng = random.Random(2019)
    latencies = []
    for index in range(ops):
        key = str(rng.randrange(key_space)).zfill(12).encode()
        begin = tree.clock.now()
        tree.put(key, b"v" * 64)
        latencies.append(tree.clock.now() - begin)
    latencies.sort()

    def pct(p):
        return latencies[min(len(latencies) - 1, int(len(latencies) * p / 100))]

    return {
        "p999_us": pct(99.9),
        "max_us": latencies[-1],
        "amp": tree.metrics().write_amplification,
        "merges": tree.leaf_merge_count,
        "absorbs": tree.absorb_count,
    }


def _experiment(ops, key_space):
    return {
        "eager": _run_stream(EagerAbsorb(), ops, key_space),
        "linked": _run_stream(LinkedAbsorb(), ops, key_space),
    }


def test_ablation_partitioned_btree(benchmark, bench_ops, bench_keys):
    out = run_once(benchmark, lambda: _experiment(bench_ops // 2, bench_keys // 2))
    rows = [
        (
            name,
            round(data["p999_us"], 1),
            round(data["max_us"], 1),
            round(data["amp"], 2),
            data["absorbs"],
            data["merges"],
        )
        for name, data in out.items()
    ]
    print()
    print(
        format_table(
            ["absorption", "p99.9 (us)", "max (us)", "write amp", "absorbs", "leaf merges"],
            rows,
            title="Ablation — partitioned B-tree, eager vs LDC-linked absorption:",
        )
    )
    eager, linked = out["eager"], out["linked"]
    print(paper_row("granularity claim (§V)", "smaller tail with LDC",
                    f"max stall {eager['max_us']:.0f} -> {linked['max_us']:.0f} us"))

    # §V's claim, measured: linked absorption shrinks the worst-case stall...
    assert linked["max_us"] < eager["max_us"]
    # ...without inflating write amplification beyond the eager scheme's.
    assert linked["amp"] < eager["amp"] * 1.5
