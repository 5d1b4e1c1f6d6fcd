"""Recomposition identity: registry-built policies reproduce the stores
the pre-registry policy classes built, byte for byte.

PR 6 re-expressed udc/ldc/tiered/delayed as compositions of orthogonal
primitives and kept the four monolithic classes as shims; PR 17 deleted
the shims.  The virtual clock only advances on device / cost model
charges, so *any* behavioural divergence — one extra file touched, one
different merge order — shows up in the fingerprint: the store's
virtual end time, every metric counter and the full logical contents.
``LEGACY_DIGESTS`` holds the SHA-256 of each cell's fingerprint, captured
on PR 17's parent commit **through the legacy classes**; the stores built
from the registry must reproduce them exactly.
"""

import hashlib
import random

import pytest

from repro import DB
from repro.lsm.config import LSMConfig

LEGACY_NAMES = ("udc", "ldc", "tiered", "delayed")

KEY_SPACE = 120
NUM_OPS = 500

#: (name, bg_threads) -> sha256(repr(fingerprint)), captured on
#: the parent of PR 17 (commit 7556e4c) through the legacy classes.
#: The ``bg_threads=1`` cells were re-pinned when memtable flushes moved
#: onto the scheduler's flush lane (the clock, ``sched.*`` and round
#: captures moved; the logical items did not).
LEGACY_DIGESTS = {
    ("udc", 0): "6e5a6adc5d57d0d72eeaf109d9c946f665ec33281b309036cafba1421b48e6ed",
    ("udc", 1): "cebedff4a4f62dc4d1d3b830d76cc719c80ffb6063444f87c5c1582d0ecfb725",
    ("ldc", 0): "a7340fa94f12f104db4748c05cb1e1c1d6e2d5da2eb4b75ece321a299e60dbb3",
    ("ldc", 1): "aef3e57701086dcdec1031ffc8829e8787a78550f21b61ba5732afe9e082a165",
    ("tiered", 0): "0e23540b548b9892d375e735e87bd2b7727a41c66f4d121fcfea4e62931a5109",
    ("tiered", 1): "6ccac8d3e97acb8631feacb6c3e20cc40859aeb5edd32502f98454326783541a",
    ("delayed", 0): "b0d31b5e312101ebe589880e9b5303257bde08fc9a5a7b68aeb0ad2727a8374d",
    ("delayed", 1): "406b6e0fd7a4be0d1f7535b77fb21a9103868c28a68c2bc08bfc6aa93e02ed07",
}


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
    fingerprint = drive(build_store(name, bg_threads))
    digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()
    assert digest == LEGACY_DIGESTS[name, bg_threads]


def test_workload_exercises_every_policy():
    """Guard: the identity workload must actually compact under each
    policy — a pinned digest of an idle store would prove nothing."""
    for name in LEGACY_NAMES:
        fingerprint = drive(build_store(name, 0))
        counters = dict(fingerprint[1])
        assert counters.get("engine.flush_count", 0) > 0, name
        assert policy_counter_keys(fingerprint), name
