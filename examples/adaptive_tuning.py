#!/usr/bin/env python3
"""Self-adaptive SliceLink threshold reacting to a shifting workload.

§III-B.4 of the paper proposes tuning LDC's SliceLink threshold ``T_s`` to
the live read/write mix: small thresholds for read-dominated phases (fewer
linked slices to check on reads), large ones for write-dominated phases
(more accumulation, less write amplification).

This example drives one LDC store through three phases — write-heavy,
balanced, read-heavy — and prints the controller's smoothed write-ratio
estimate and the threshold it converges to in each phase.

Run:  python examples/adaptive_tuning.py
"""

import numpy as np

from repro import DB, LSMConfig, get_spec

PHASES = (
    ("write-heavy (90% writes)", 0.9, 30_000),
    ("balanced   (50% writes)", 0.5, 30_000),
    ("read-heavy (10% writes)", 0.1, 30_000),
)
KEY_SPACE = 15_000


def main() -> None:
    policy = get_spec("ldc").derive(adaptive=True).build()
    db = DB(config=LSMConfig(), policy=policy)
    rng = np.random.default_rng(11)
    value = b"v" * 512

    # Seed the store so the read phases hit existing keys.
    for index in range(KEY_SPACE):
        db.put(str(index).zfill(16).encode(), value)

    fan_out = db.config.fan_out
    print(f"fan-out = {fan_out}; controller maps write-ratio w -> T_s ~ 2*{fan_out}*w\n")
    print(f"{'phase':<28} {'est. write ratio':>17} {'T_s':>5} {'merges':>8}")
    print("-" * 62)
    for label, write_ratio, ops in PHASES:
        before = db.metrics()
        for _ in range(ops):
            key = str(int(rng.integers(0, KEY_SPACE))).zfill(16).encode()
            if rng.random() < write_ratio:
                db.put(key, value)
            else:
                db.get(key)
        print(
            f"{label:<28} {policy.movement._adaptive.write_ratio:>17.3f} "  # noqa: SLF001 - demo introspection
            f"{policy.movement.threshold:>5} "
            f"{db.metrics().delta(before).get('engine.merge_count'):>8}"
        )

    print(
        "\nThe threshold follows the mix: large while writes dominate "
        "(accumulate more per merge),\nsmall once reads dominate (fewer "
        "slices for lookups to check)."
    )


if __name__ == "__main__":
    main()
