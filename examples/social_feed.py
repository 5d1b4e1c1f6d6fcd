#!/usr/bin/env python3
"""Social-feed scenario: the paper's motivating online workload.

The paper's introduction motivates LDC with online big-data services —
social networking in particular — where users continuously post (writes)
while timelines are assembled from range reads, and where *tail latency* is
the user-visible quality metric.

This example models a feed store: keys are ``(user, timestamp)`` pairs so
one user's posts are contiguous; the workload interleaves 60% post writes
with 40% timeline scans.  It runs the same trace against UDC and LDC and
reports the numbers an SRE would care about: p99/p99.9 latency and how
often an operation stalls behind compaction.

Run:  python examples/social_feed.py
"""

import numpy as np

from repro import DB, LSMConfig

NUM_USERS = 400
NUM_OPS = 40_000
POST_BYTES = 512
TIMELINE_POSTS = 20


def feed_key(user: int, post_index: int) -> bytes:
    """Keys sort by user, then by time — a timeline is one contiguous range."""
    return f"feed/{user:06d}/{post_index:010d}".encode()


def run_trace(policy_name: str, policy: str) -> dict:
    db = DB(config=LSMConfig(), policy=policy)
    rng = np.random.default_rng(2019)
    post_counts = [0] * NUM_USERS
    latencies = []

    for _ in range(NUM_OPS):
        user = int(rng.integers(0, NUM_USERS))
        begin = db.clock.now()
        if rng.random() < 0.6:
            # The user posts.
            body = rng.bytes(POST_BYTES)
            db.put(feed_key(user, post_counts[user]), body)
            post_counts[user] += 1
        else:
            # Someone opens the user's timeline: newest TIMELINE_POSTS posts.
            start = max(0, post_counts[user] - TIMELINE_POSTS)
            db.scan(feed_key(user, start), count=TIMELINE_POSTS)
        latencies.append(db.clock.now() - begin)

    latencies.sort()

    def pct(p: float) -> float:
        return latencies[min(len(latencies) - 1, int(len(latencies) * p / 100))]

    snap = db.metrics()
    return {
        "policy": policy_name,
        "p50_us": pct(50),
        "p99_us": pct(99),
        "p999_us": pct(99.9),
        "mean_us": sum(latencies) / len(latencies),
        "compaction_mib": snap.compaction_bytes_total / 2**20,
        "write_amp": snap.write_amplification,
    }


def main() -> None:
    print(f"social feed: {NUM_USERS} users, {NUM_OPS} ops (60% posts / 40% timelines)\n")
    results = [
        run_trace("UDC (stock LevelDB)", "udc"),
        run_trace("LDC (this paper)", "ldc"),
    ]
    header = f"{'policy':<22} {'p50':>8} {'p99':>9} {'p99.9':>9} {'mean':>8} {'compactIO':>10} {'WA':>6}"
    print(header)
    print("-" * len(header))
    for row in results:
        print(
            f"{row['policy']:<22} {row['p50_us']:>7.0f}u {row['p99_us']:>8.0f}u "
            f"{row['p999_us']:>8.0f}u {row['mean_us']:>7.1f}u "
            f"{row['compaction_mib']:>8.1f}Mi {row['write_amp']:>6.2f}"
        )
    udc, ldc = results
    print(
        f"\nLDC cuts p99.9 by {udc['p999_us'] / max(ldc['p999_us'], 1e-9):.2f}x and "
        f"compaction I/O by {100 * (1 - ldc['compaction_mib'] / udc['compaction_mib']):.0f}% "
        f"on this trace."
    )


if __name__ == "__main__":
    main()
