#!/usr/bin/env python3
"""LDC beyond LSM-trees: linked absorption in a partitioned B-tree (§V).

The paper's related-work section argues LDC generalises: a partitioned
B-tree also periodically merges small write-optimised partitions into a
large main partition, and the same link & merge split applies — freeze the
side partitions, link their slices onto the main partition's *leaves*, and
merge each leaf only when it has accumulated about a leaf's worth of
linked data.

This example ingests the same bursty update stream under both absorption
strategies and prints the per-operation stall profile, plus a small
text histogram of stall magnitudes.

Run:  python examples/btree_absorption.py
"""

import random

from repro.extras.partitioned_btree import (
    EagerAbsorb,
    LinkedAbsorb,
    PartitionedBTree,
)

NUM_OPS = 25_000
KEY_SPACE = 8_000
VALUE_BYTES = 64


def run(policy_name: str, policy) -> dict:
    tree = PartitionedBTree(
        policy=policy,
        buffer_bytes=8 * 1024,
        leaf_bytes=8 * 1024,
        max_side_partitions=4,
    )
    rng = random.Random(42)
    stalls = []
    for _ in range(NUM_OPS):
        key = str(rng.randrange(KEY_SPACE)).zfill(12).encode()
        begin = tree.clock.now()
        tree.put(key, b"v" * VALUE_BYTES)
        stalls.append(tree.clock.now() - begin)
    stalls.sort()
    return {
        "name": policy_name,
        "stalls": stalls,
        "amp": tree.metrics().write_amplification,
        "absorbs": tree.absorb_count,
        "leaf_merges": tree.leaf_merge_count,
        "tree": tree,
    }


def histogram(stalls, buckets=(10, 100, 500, 1000, 5000)) -> str:
    """A small text histogram of stall magnitudes (µs)."""
    lines = []
    previous = 0.0
    for bound in list(buckets) + [float("inf")]:
        count = sum(1 for s in stalls if previous <= s < bound)
        bar = "#" * min(60, max(1, count * 60 // len(stalls)) if count else 0)
        label = f"<{bound:g}us" if bound != float("inf") else f">={previous:g}us"
        lines.append(f"    {label:>9} {count:>7}  {bar}")
        previous = bound
    return "\n".join(lines)


def main() -> None:
    print(
        f"partitioned B-tree, {NUM_OPS:,} updates over {KEY_SPACE:,} keys, "
        f"4 side partitions per absorb\n"
    )
    results = [
        run("eager absorption (classical)", EagerAbsorb()),
        run("linked absorption (LDC, §V)", LinkedAbsorb()),
    ]
    for data in results:
        stalls = data["stalls"]
        p999 = stalls[int(len(stalls) * 0.999)]
        print(
            f"{data['name']}\n"
            f"    write amp {data['amp']:.2f}, absorbs {data['absorbs']}, "
            f"leaf merges {data['leaf_merges']}, "
            f"p99.9 {p999:.0f}us, max {stalls[-1]:.0f}us"
        )
        print(histogram(stalls))
        print()
    eager, linked = results
    print(
        f"linked absorption shrinks the worst stall "
        f"{eager['stalls'][-1] / linked['stalls'][-1]:.1f}x and writes "
        f"{100 * (1 - linked['amp'] / eager['amp']):.0f}% less to the device."
    )


if __name__ == "__main__":
    main()
