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
LEGACY_DIGESTS = {
    ("udc", 0, 1): "6e5a6adc5d57d0d72eeaf109d9c946f665ec33281b309036cafba1421b48e6ed",
    ("udc", 0, 4): "d31e77f84a072ca7caf83e4f71fbcb7f628ba99f0f1c101f3b8700d8157d91f9",
    ("udc", 1, 1): "2fc5aa68e2f4e756464f51bc6580dd6cf91cb831f88b6b88092135a0d91e11ad",
    ("udc", 1, 4): "39db3da087f16ec006322ea5d5594e277794124d18d546b89819c716595b4149",
    ("ldc", 0, 1): "a7340fa94f12f104db4748c05cb1e1c1d6e2d5da2eb4b75ece321a299e60dbb3",
    ("ldc", 0, 4): "0fe15796b78327976df9a4d831265eba5152edf7279b321b93331a6b9a2686e0",
    ("ldc", 1, 1): "8dfda8c630184e3b4208f3645d0b3b626444b81d95b050d4c26e727f153ee5fa",
    ("ldc", 1, 4): "8ec2ed3ff741a5fd748c200d4677b60ab083a14b3b7277bcc81d9f40d77a2412",
    ("tiered", 0, 1): "0e23540b548b9892d375e735e87bd2b7727a41c66f4d121fcfea4e62931a5109",
    ("tiered", 0, 4): "136b45aceef99089f19b98e0b01637d3a8e90e9f2c388f8db56e294b445fca00",
    ("tiered", 1, 1): "427159e7882a736a25eed1bfc58faa8ec4ccbc9da51c9632a478ec05e1ba58a0",
    ("tiered", 1, 4): "55192880c4d8530ed14550c73c101b837a0e00cf0126c2aba8a0cceb9940bba8",
    ("delayed", 0, 1): "b0d31b5e312101ebe589880e9b5303257bde08fc9a5a7b68aeb0ad2727a8374d",
    ("delayed", 0, 4): "1ff21b3dd692fab5b7f84000c920df03c7bcbfe909a0c159f5bbdfbf693117bd",
    ("delayed", 1, 1): "4ee62dcb3dadab34727170cc19ba336f76a853931e6ea329075172a507655fab",
    ("delayed", 1, 4): "3f5f7561e37cfe199c62be5d09d30a79c55927b87db979971ccba92659991a84",
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
