"""Flash-layer differential suite: the FTL must be invisible when off.

Two pins:

1. **Flash-off bit-identity** — a device built from
   ``DeviceConfig(flash=None)`` must be *byte-identical* to one built
   from the bare profile, across every registered policy and scheduler
   on/off.  The whole run fingerprint (elapsed virtual time, every
   counter and gauge, latency values, timeline) is compared, so any
   accidental charge, extra counter or clock advance in the flash
   plumbing fails loudly.

2. **Flash-on without GC pressure charges exactly the host I/O** — with
   100% over-provisioning and capacity sized far above the store's total
   write volume, GC never runs, so the flash layer may add its own
   ``flash.*`` accounting but must not change a single ``device.*`` /
   ``engine.*`` counter or the virtual clock.
"""

import random

import pytest

from repro import DB, DeviceConfig, FlashSpec, WriteBatch
from repro.harness.runner import run_workload
from repro.lsm.config import LSMConfig
from repro.ssd.profile import ENTERPRISE_PCIE
from repro.workload.spec import rwb

POLICIES = (
    "udc",
    "ldc",
    "tiered",
    "delayed",
)

KEY_SPACE = 150
NUM_OPS = 400


def make_config(bg_threads: int) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=2048,
        sstable_target_bytes=2048,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=4096,
        max_levels=6,
        bg_threads=bg_threads,
    )


def run_fingerprint(policy_name, bg_threads, profile):
    spec = rwb(num_operations=NUM_OPS, key_space=KEY_SPACE)
    result = run_workload(
        spec, policy_name, config=make_config(bg_threads), profile=profile
    )
    return result.fingerprint()


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("bg_threads", (0, 1))
def test_flash_off_bit_identical(policy_name, bg_threads):
    """DeviceConfig(flash=None) == bare profile, to the last counter."""
    bare = run_fingerprint(policy_name, bg_threads, ENTERPRISE_PCIE)
    wrapped = run_fingerprint(
        policy_name, bg_threads, DeviceConfig(profile=ENTERPRISE_PCIE)
    )
    assert bare == wrapped


# ----------------------------------------------------------------------
# Flash-on, no GC pressure: exactly the host I/O
# ----------------------------------------------------------------------
def key_of(index: int) -> bytes:
    return str(index).zfill(10).encode()


def drive_workload(policy_name, profile, seed=7):
    """A seeded mixed workload driven straight through the DB API."""
    db = DB(config=make_config(0), policy=policy_name, profile=profile)
    rng = random.Random(seed)
    for _ in range(600):
        roll = rng.random()
        if roll < 0.55:
            db.put(key_of(rng.randrange(KEY_SPACE)), rng.randbytes(64))
        elif roll < 0.65:
            db.delete(key_of(rng.randrange(KEY_SPACE)))
        elif roll < 0.72:
            batch = WriteBatch()
            for _ in range(rng.randrange(2, 5)):
                batch.put(key_of(rng.randrange(KEY_SPACE)), rng.randbytes(24))
            db.write_batch(batch)
        elif roll < 0.9:
            db.get(key_of(rng.randrange(KEY_SPACE)))
        else:
            db.scan(key_of(rng.randrange(KEY_SPACE)), 5)
    return db


ENGINE_PREFIXES = ("device.", "engine.", "cache.", "policy.")


def engine_counters(snapshot):
    return {
        key: value
        for key, value in snapshot.counters.items()
        if key.startswith(ENGINE_PREFIXES)
    }


@pytest.mark.parametrize("policy_name", ("udc", "ldc"))
def test_flash_on_without_gc_charges_exactly_host_io(policy_name):
    baseline = drive_workload(policy_name, ENTERPRISE_PCIE)
    base_snap = baseline.metrics()
    total_written = base_snap.total_bytes_written
    assert total_written > 0

    # Capacity far above everything the run ever writes: GC never fires.
    flash = FlashSpec(
        page_bytes=512,
        pages_per_block=16,
        logical_bytes=2 * total_written,
        over_provisioning=1.0,
    )
    flashed = drive_workload(policy_name, DeviceConfig(flash=flash))
    snap = flashed.metrics()

    # Same virtual clock, same host-side accounting, to the last counter.
    assert flashed.clock.now() == baseline.clock.now()
    assert engine_counters(snap) == engine_counters(base_snap)

    # No GC traffic of any kind.
    assert snap.counters.get("device.write.gc_write.bytes", 0) == 0
    assert snap.counters.get("device.read.gc_read.bytes", 0) == 0
    assert snap.counters.get("flash.gc_pages_relocated", 0) == 0
    assert snap.counters.get("flash.gc_collections", 0) == 0

    # The flash layer still accounts its programs, and page rounding can
    # only push the device ratio upward.
    assert snap.flash_bytes_programmed > 0
    assert snap.device_write_amplification >= 1.0
    assert snap.write_amplification == base_snap.write_amplification
    flashed.device.flash.check_invariants()


def test_flash_on_snapshot_exposes_device_columns():
    """Flash-on runs surface the WA decomposition on the snapshot."""
    flash = FlashSpec(
        page_bytes=512, pages_per_block=16, logical_bytes=48 * 1024
    )
    db = drive_workload("ldc", DeviceConfig(flash=flash))
    snap = db.metrics()
    assert snap.device_write_amplification > 1.0
    assert snap.total_write_amplification == pytest.approx(
        snap.write_amplification * snap.device_write_amplification
    )
    assert snap.blocks_erased > 0
    assert snap.max_erase_count >= 1
    db.check_invariants()
