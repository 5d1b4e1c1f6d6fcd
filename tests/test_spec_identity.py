"""Recomposition identity: registry-built policies reproduce the stores
the pre-registry policy classes built, byte for byte.

PR 6 re-expressed udc/ldc/tiered/delayed as compositions of orthogonal
primitives and kept the four monolithic classes as shims; PR 17 deleted
the shims.  The virtual clock only advances on device / cost model
charges, so *any* behavioural divergence — one extra file touched, one
different merge order — shows up in the fingerprint: every shard's
virtual end time, every metric counter and the full logical contents.
``LEGACY_DIGESTS`` holds the SHA-256 of each cell's fingerprint, captured
on PR 17's parent commit **through the legacy classes**; the stores built
from the registry must reproduce them exactly.

Sharded cells scale the op count and the key space with the shard count:
at the single-store size a 4-shard fleet's memtables never filled, so on
the parent those eight cells compared stores that had never flushed.
"""

import hashlib
import random

import pytest

from repro import DB, ShardedDB
from repro.lsm.config import LSMConfig

LEGACY_NAMES = ("udc", "ldc", "tiered", "delayed")

#: Per shard: a sharded cell runs ``NUM_OPS * shards`` operations over
#: ``KEY_SPACE * shards`` keys.
KEY_SPACE = 120
NUM_OPS = 500

#: (name, bg_threads, shards) -> sha256(repr(fingerprint)), captured on
#: the parent of PR 17 (commit 7556e4c) through the legacy classes.
#: The ``bg_threads=1`` cells were re-pinned when memtable flushes moved
#: onto the scheduler's flush lane (the clock, ``sched.*`` and round
#: captures moved; the logical items did not).
LEGACY_DIGESTS = {
    ("udc", 0, 1): "6e5a6adc5d57d0d72eeaf109d9c946f665ec33281b309036cafba1421b48e6ed",
    ("udc", 0, 4): "d31e77f84a072ca7caf83e4f71fbcb7f628ba99f0f1c101f3b8700d8157d91f9",
    ("udc", 1, 1): "cebedff4a4f62dc4d1d3b830d76cc719c80ffb6063444f87c5c1582d0ecfb725",
    ("udc", 1, 4): "65e910d2bd3f0a33a0499bd7e400e5c2b08682b7db0d0418d46adca203515189",
    ("ldc", 0, 1): "a7340fa94f12f104db4748c05cb1e1c1d6e2d5da2eb4b75ece321a299e60dbb3",
    ("ldc", 0, 4): "0fe15796b78327976df9a4d831265eba5152edf7279b321b93331a6b9a2686e0",
    ("ldc", 1, 1): "aef3e57701086dcdec1031ffc8829e8787a78550f21b61ba5732afe9e082a165",
    ("ldc", 1, 4): "99eee379fd5ce9a89315a4f8ba281aad072d8003b3df6e1b341ff1ad83dcbea6",
    ("tiered", 0, 1): "0e23540b548b9892d375e735e87bd2b7727a41c66f4d121fcfea4e62931a5109",
    ("tiered", 0, 4): "136b45aceef99089f19b98e0b01637d3a8e90e9f2c388f8db56e294b445fca00",
    ("tiered", 1, 1): "6ccac8d3e97acb8631feacb6c3e20cc40859aeb5edd32502f98454326783541a",
    ("tiered", 1, 4): "fdd094434de7b3f36063166a7320a0002aa06e6b183a77c2acf9bbb11515db5e",
    ("delayed", 0, 1): "b0d31b5e312101ebe589880e9b5303257bde08fc9a5a7b68aeb0ad2727a8374d",
    ("delayed", 0, 4): "1ff21b3dd692fab5b7f84000c920df03c7bcbfe909a0c159f5bbdfbf693117bd",
    ("delayed", 1, 1): "406b6e0fd7a4be0d1f7535b77fb21a9103868c28a68c2bc08bfc6aa93e02ed07",
    ("delayed", 1, 4): "7229f0c571b56f94c86fb574015f8656bcd66ce074cd3d061d75acb151059f57",
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


def drive(store, shards: int = 1) -> tuple:
    """Run a seeded mixed workload and return the full fingerprint."""
    rng = random.Random(73)
    for _ in range(NUM_OPS * shards):
        roll = rng.random()
        index = rng.randrange(KEY_SPACE * shards)
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
    engines = store.shards if isinstance(store, ShardedDB) else [store]
    return (
        tuple(engine.clock.now() for engine in engines),
        tuple(sorted(snapshot.counters.items())),
        tuple(store.logical_items()),
    )


def build_store(policy, bg_threads: int, shards: int):
    config = tiny_config(bg_threads)
    if shards == 1:
        return DB(config=config, policy=policy)
    return ShardedDB(shards, policy, key_space=KEY_SPACE * 2, config=config)


def policy_counter_keys(fingerprint: tuple) -> set:
    return {key for key, _ in fingerprint[1] if key.startswith("policy.")}


@pytest.mark.parametrize("name", LEGACY_NAMES)
@pytest.mark.parametrize("bg_threads", (0, 1))
@pytest.mark.parametrize("shards", (1, 4))
def test_recomposed_policy_matches_legacy_class(name, bg_threads, shards):
    fingerprint = drive(build_store(name, bg_threads, shards), shards)
    digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()
    assert digest == LEGACY_DIGESTS[name, bg_threads, shards]


def test_workload_exercises_every_policy():
    """Guard: the identity workload must actually compact under each
    policy — a pinned digest of an idle store would prove nothing."""
    for name in LEGACY_NAMES:
        for shards in (1, 4):
            fingerprint = drive(build_store(name, 0, shards), shards)
            counters = dict(fingerprint[1])
            assert counters.get("engine.flush_count", 0) > 0, (name, shards)
            assert policy_counter_keys(fingerprint), (name, shards)
