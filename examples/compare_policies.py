#!/usr/bin/env python3
"""Compare all three compaction policies across the paper's workload mixes.

Runs the Table III point-lookup mixes (WO / WH / RWB / RH / RO) against
UDC (LevelDB's leveled compaction), LDC (the paper), and the size-tiered
lazy baseline, printing throughput, tail latency and compaction I/O side
by side — a miniature of the paper's Figs. 8–10 in one table.

Run:  python examples/compare_policies.py            (a few minutes)
      python examples/compare_policies.py --quick    (smaller, ~30 s)
"""

import sys

from repro.harness import format_table, run_workload
from repro.workload import TABLE_III

MIXES = ("WO", "WH", "RWB", "RH", "RO")
POLICIES = (
    ("UDC", "udc"),
    ("LDC", "ldc"),
    ("Tiered", "tiered"),
)


def main() -> None:
    quick = "--quick" in sys.argv
    ops = 10_000 if quick else 40_000
    key_space = 5_000 if quick else 15_000

    rows = []
    for mix in MIXES:
        spec = TABLE_III[mix](num_operations=ops, key_space=key_space)
        for policy_name, policy in POLICIES:
            result = run_workload(spec, policy)
            rows.append(
                (
                    mix,
                    policy_name,
                    round(result.throughput_ops_s),
                    result.latencies.percentile(99.9),
                    result.compaction_bytes_total / 2**20,
                    result.write_amplification,
                )
            )
            print(f"  finished {mix}/{policy_name}", file=sys.stderr)

    print(
        format_table(
            ["workload", "policy", "ops/s", "p99.9 (us)", "compaction MiB", "write amp"],
            rows,
            title=f"\nTable III mixes, {ops:,} ops over {key_space:,} keys:",
        )
    )
    print(
        "\nExpected shape (paper Figs. 8-10): LDC beats UDC on write-bearing "
        "mixes in both\nthroughput and tail latency; Tiered wins some write "
        "amplification but pays with\nmuch larger tails; on RO all policies "
        "converge."
    )


if __name__ == "__main__":
    main()
