#!/usr/bin/env python3
"""Quickstart: the public API in two minutes.

Creates a key-value store running the paper's LDC compaction policy over a
simulated enterprise PCIe SSD, performs the basic operations, and prints
what the engine did — all in deterministic virtual time.

Run:  python examples/quickstart.py
"""

from repro import DB, LSMConfig


def main() -> None:
    # A store with the paper's geometry (fan-out 10, 10-bit Bloom filters)
    # at simulation scale: 64 KiB memtable/SSTables.
    config = LSMConfig()
    db = DB(config=config, policy="ldc")

    # --- Writes -------------------------------------------------------
    for user_id in range(5_000):
        key = f"user:{user_id:010d}".encode()
        value = f"profile-data-for-user-{user_id}".encode() * 4
        db.put(key, value)
    print(f"inserted 5,000 keys in {db.clock.now() / 1e3:.1f} virtual ms")

    # --- Point lookups --------------------------------------------------
    value = db.get(b"user:0000001234")
    assert value is not None and value.startswith(b"profile-data-for-user-1234")
    missing = db.get(b"user:9999999999")
    assert missing is None

    # --- Updates shadow older versions ---------------------------------
    db.put(b"user:0000001234", b"updated!")
    assert db.get(b"user:0000001234") == b"updated!"

    # --- Deletes are tombstones -----------------------------------------
    db.delete(b"user:0000000007")
    assert db.get(b"user:0000000007") is None

    # --- Range scans -----------------------------------------------------
    window = db.scan(b"user:0000002000", count=5)
    print("scan from user:2000 ->", [key.decode() for key, _ in window])

    # --- What the engine did ---------------------------------------------
    snap = db.metrics()  # every counter, frozen; docs/METRICS.md lists the keys
    print(
        f"flushes={snap.get('engine.flush_count')}  "
        f"links={snap.get('engine.link_count')}  "
        f"merges={snap.get('engine.merge_count')}  "
        f"trivial_moves={snap.get('engine.trivial_moves')}"
    )
    print(
        f"compaction I/O: read {snap.compaction_bytes_read / 2**20:.1f} MiB, "
        f"wrote {snap.compaction_bytes_written / 2**20:.1f} MiB"
    )
    print(f"write amplification: {snap.write_amplification:.2f}")
    print(
        "levels:",
        [len(level_files) for level_files in db.version.levels],
        f" frozen files awaiting merge: {len(db.policy.movement.frozen)}",
    )
    db.close()


if __name__ == "__main__":
    main()
