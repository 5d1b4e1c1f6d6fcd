#!/usr/bin/env python3
"""SSD endurance: how much flash lifetime does LDC buy?

The paper's third contribution claims LDC "lengthen[s] the lifetimes of
SSDs significantly by cutting down the compaction I/Os by about 50%".
Flash cells tolerate a bounded number of program/erase cycles (the paper
cites 5,000-10,000), so device lifetime is inversely proportional to the
bytes physically written — and since the FTL's own garbage collection
amplifies host writes again below the file system, what actually ages
the device is *total* write amplification: host WA x device WA.

This example mounts the real flash model (``repro.ssd.flash``: page
mapping, log-structured allocation, GC, per-block erase counts) under
both policies, ingests the same update-heavy stream, and reads the
measured erase counters instead of a host-side proxy:

* ``device WA``     — flash pages programmed / host bytes written,
* ``total WA``      — host WA x device WA (user byte -> flash program),
* ``blocks erased`` / ``max erase`` — the wear the projection rests on.

The device is sized from a flash-off probe of the UDC run so both
policies see identical slack (see docs/DEVICE.md on why capacity, not
policy, dominates device WA when the geometry is too tight).

Run:  python examples/ssd_endurance.py
"""

import numpy as np

from repro import DB, DeviceConfig, FlashSpec, LSMConfig

NUM_OPS = 60_000
KEY_SPACE = 25_000
VALUE_BYTES = 1024

#: Device capacity = probe footprint x this margin (same calibration as
#: repro.harness.experiments.fig_device_wa).
SIZE_MARGIN = 3.0
OVER_PROVISIONING = 0.07  # 7% hidden blocks, the enterprise default
PE_CYCLES = 5_000  # conservative end of the paper's 5k-10k range


def ingest(policy: str, profile=None, *, num_ops, key_space, value_bytes) -> DB:
    kwargs = {"profile": profile} if profile is not None else {}
    db = DB(config=LSMConfig(), policy=policy, **kwargs)
    rng = np.random.default_rng(7)
    value = b"x" * value_bytes
    for _ in range(num_ops):
        key = str(int(rng.integers(0, key_space))).zfill(16).encode()
        db.put(key, value)
    return db


def run(num_ops=NUM_OPS, key_space=KEY_SPACE, value_bytes=VALUE_BYTES):
    """Size the device, ingest under UDC and LDC, return measured rows."""
    probe = ingest(
        "udc", num_ops=num_ops, key_space=key_space, value_bytes=value_bytes
    )
    space = probe.version.total_file_bytes() + probe.policy.extra_space_bytes()
    flash = FlashSpec(
        logical_bytes=max(int(space * SIZE_MARGIN), 1 << 20),
        over_provisioning=OVER_PROVISIONING,
    )
    rows = []
    for name in ("udc", "ldc"):
        db = ingest(
            name,
            DeviceConfig(flash=flash),
            num_ops=num_ops,
            key_space=key_space,
            value_bytes=value_bytes,
        )
        snap = db.metrics()
        rows.append(
            {
                "policy": name.upper(),
                "user_bytes": snap.user_bytes_written,
                "host_bytes": snap.host_bytes_written,
                "programmed_bytes": snap.flash_bytes_programmed,
                "host_wa": snap.write_amplification,
                "device_wa": snap.device_write_amplification,
                "total_wa": snap.total_write_amplification,
                "blocks_erased": snap.blocks_erased,
                "max_erase": snap.max_erase_count,
            }
        )
    return flash, rows


def main(num_ops=NUM_OPS, key_space=KEY_SPACE, value_bytes=VALUE_BYTES) -> None:
    print(
        f"ingesting {num_ops:,} updates of {value_bytes} B over "
        f"{key_space:,} keys\n"
    )
    flash, rows = run(num_ops, key_space, value_bytes)
    print(
        f"flash geometry: {flash.physical_bytes / 2**20:.1f} MiB physical "
        f"({flash.total_blocks} blocks x {flash.block_bytes // 1024} KiB), "
        f"OP {flash.over_provisioning:.0%}, GC {flash.gc_policy}\n"
    )
    print(
        f"{'policy':<8} {'user data':>11} {'flash writes':>13} "
        f"{'host WA':>8} {'device WA':>10} {'total WA':>9} "
        f"{'erases':>7} {'max P/E':>8} {'lifetime*':>10}"
    )
    print("-" * 92)
    for row in rows:
        # Wear-limited lifetime: the hottest block hits the P/E rating
        # after PE_CYCLES / max_erase repetitions of this ingest.
        lifetime = PE_CYCLES / max(row["max_erase"], 1)
        print(
            f"{row['policy']:<8} {row['user_bytes'] / 2**20:>9.1f}Mi "
            f"{row['programmed_bytes'] / 2**20:>11.1f}Mi "
            f"{row['host_wa']:>8.2f} {row['device_wa']:>10.2f} "
            f"{row['total_wa']:>9.2f} {row['blocks_erased']:>7} "
            f"{row['max_erase']:>8} {lifetime:>5.0f} runs"
        )
    udc, ldc = rows
    print(
        f"\n* repetitions of this ingest before the hottest block exhausts "
        f"{PE_CYCLES:,} P/E cycles."
    )
    print(
        f"LDC programs {100 * (1 - ldc['programmed_bytes'] / udc['programmed_bytes']):.0f}% "
        f"less flash than UDC (total WA {ldc['total_wa']:.2f} vs "
        f"{udc['total_wa']:.2f}), so the device lasts "
        f"{udc['programmed_bytes'] / ldc['programmed_bytes']:.2f}x longer "
        f"under this workload."
    )


if __name__ == "__main__":
    main()
