"""Recomposition identity: registry-built policies reproduce the stores
the pre-registry policy classes built, byte for byte.

PR 6 re-expressed udc/ldc/tiered/delayed as compositions of orthogonal
primitives and kept the four monolithic classes as shims; PR 17 deleted
the shims.  The virtual clock only advances on device / cost model
charges, so *any* behavioural divergence — one extra file touched, one
different merge order — shows up in the fingerprint: the store's
virtual end time, every metric counter and the full logical contents.
Each cell's fingerprint is pinned in ``tests/pins.json``
(``spec_identity/<bg_threads>-<name>``), first captured **through the
legacy classes**; the stores built from the registry must reproduce them
exactly.
"""

import random

import pytest

from repro import DB
from repro.lsm.config import LSMConfig

from .pins import check

LEGACY_NAMES = ("udc", "ldc", "tiered", "delayed")
PIN_CASES = [
    f"spec_identity/{bg_threads}-{name}"
    for bg_threads in (0, 1) for name in LEGACY_NAMES
]

KEY_SPACE = 120
NUM_OPS = 500

def tiny_config(bg_threads: int) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=2048,
        sstable_target_bytes=2048,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=4096,
        max_levels=6,
        bg_threads=bg_threads,
    )


def key_of(index: int) -> bytes:
    return str(index).zfill(10).encode()


def drive(store) -> tuple:
    """Run a seeded mixed workload and return the full fingerprint."""
    rng = random.Random(73)
    for _ in range(NUM_OPS):
        roll = rng.random()
        index = rng.randrange(KEY_SPACE)
        if roll < 0.55:
            store.put(key_of(index), rng.randbytes(rng.randrange(8, 72)))
        elif roll < 0.65:
            store.delete(key_of(index))
        elif roll < 0.85:
            store.get(key_of(index))
        else:
            store.scan(key_of(index), 8)
    store.check_invariants()
    snapshot = store.metrics()
    return (
        (store.clock.now(),),
        tuple(sorted(snapshot.counters.items())),
        tuple(store.logical_items()),
    )


def build_store(policy, bg_threads: int):
    return DB(config=tiny_config(bg_threads), policy=policy)


def policy_counter_keys(fingerprint: tuple) -> set:
    return {key for key, _ in fingerprint[1] if key.startswith("policy.")}


@pytest.mark.parametrize("name", LEGACY_NAMES)
@pytest.mark.parametrize("bg_threads", (0, 1))
def test_recomposed_policy_matches_legacy_class(name, bg_threads):
    store = build_store(name, bg_threads)
    fingerprint = drive(store)
    check(f"spec_identity/{bg_threads}-{name}", fingerprint,
          elapsed_us=store.clock.now(),
          write_amp=store.metrics().write_amplification)


def test_workload_exercises_every_policy():
    """Guard: the identity workload must actually compact under each
    policy — a pinned digest of an idle store would prove nothing."""
    for name in LEGACY_NAMES:
        fingerprint = drive(build_store(name, 0))
        counters = dict(fingerprint[1])
        assert counters.get("engine.flush_count", 0) > 0, name
        assert policy_counter_keys(fingerprint), name
