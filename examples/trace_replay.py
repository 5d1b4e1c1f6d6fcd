#!/usr/bin/env python3
"""Record a workload trace, persist it, and replay it across all policies.

A trace pins down the *exact* request sequence — useful for sharing a
benchmark between engines, regression-testing a compaction change against
a captured workload, or comparing policies on identical inputs.  This
example:

1. generates a mixed read/write/delete workload and records its trace;
2. writes it to disk in the portable text format and reads it back;
3. replays the identical stream through UDC, LDC, the size-tiered and the
   dCompaction-style delayed baselines;
4. verifies all four stores end bit-identical, then prints their cost
   profiles side by side.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro import DB
from repro.workload import read_trace, record_trace, replay, write_trace, rwb

POLICIES = (
    ("UDC", "udc"),
    ("LDC", "ldc"),
    ("Tiered", "tiered"),
    ("Delayed", "delayed"),
)


def main() -> None:
    spec = rwb(
        num_operations=20_000,
        key_space=6_000,
        value_bytes=256,
        preload_keys=6_000,
        delete_ratio=0.05,
        seed=1234,
    )
    operations = record_trace(spec, include_preload=True)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rwb.trace"
        count = write_trace(operations, path, name=spec.name)
        size_kib = path.stat().st_size / 1024
        print(f"recorded {count:,} operations -> {path.name} ({size_kib:.0f} KiB)\n")

        contents = None
        print(f"{'policy':<9} {'ops/s':>8} {'p99.9 us':>9} {'write amp':>10} {'compact MiB':>12}")
        print("-" * 54)
        for name, policy in POLICIES:
            db = DB(policy=policy)
            latencies = []
            start_clock = db.clock.now()
            for op in read_trace(path):
                begin = db.clock.now()
                replay(db, [op])
                latencies.append(db.clock.now() - begin)
            latencies.sort()
            p999 = latencies[int(len(latencies) * 0.999)]
            elapsed_s = (db.clock.now() - start_clock) / 1e6
            final = dict(db.logical_items())
            if contents is None:
                contents = final
            else:
                assert final == contents, f"{name} diverged on the same trace!"
            snap = db.metrics()
            print(
                f"{name:<9} {len(latencies) / elapsed_s:>8.0f} {p999:>9.0f} "
                f"{snap.write_amplification:>10.2f} "
                f"{snap.compaction_bytes_total / 2**20:>12.1f}"
            )
        print(
            "\nAll four stores hold identical contents after the identical "
            "trace — the policies\ndiffer only in *when* they move data, "
            "which is exactly what the cost columns show."
        )


if __name__ == "__main__":
    main()
