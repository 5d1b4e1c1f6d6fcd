"""Cross-policy differential suite: every engine configuration vs one model.

One seeded random workload — puts, deletes, write batches, point gets,
scans and sequence checks — is replayed against every combination of

* compaction policy: every registered composition — UDC, LDC, tiered,
  delayed;
* scheduler: off (``bg_threads=0``) and on (``bg_threads=1``);

while a plain in-memory model (a dict) tracks the expected logical state.
Read equivalence is checked **at mid-workload points**, not only at the
end: the scheduler leaves compaction debt in flight between operations,
and a reader must never observe a half-applied compaction (capture mode
applies each round's logical effects atomically, so it cannot).

The crash tests pin the PR's recovery contract: in-flight background
chunks are pure time debt, so a crash discards them, recovery loses no
acknowledged write, and the cross-layer invariants hold immediately after
recovery — with the workload then *continuing* on the recovered store.
"""

import random

import pytest

from repro import DB, WriteBatch
from repro.lsm.config import LSMConfig

#: Registered policy names under differential test — the paper's four
#: compositions (stores are built through the central registry, so this
#: list is pure data).
POLICIES = (
    "udc",
    "ldc",
    "tiered",
    "delayed",
)

#: Tiny geometry: flushes every ~25 writes, compactions soon after.
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


KEY_SPACE = 150
NUM_OPS = 400
CHECKPOINTS = (NUM_OPS // 3, 2 * NUM_OPS // 3)


def key_of(index: int) -> bytes:
    return str(index).zfill(10).encode()


def make_workload(seed: int, num_ops: int = NUM_OPS):
    """A seeded random op stream (deterministic across runs and configs)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.45:
            ops.append(("put", rng.randrange(KEY_SPACE), rng.randbytes(rng.randrange(8, 80))))
        elif roll < 0.55:
            ops.append(("delete", rng.randrange(KEY_SPACE)))
        elif roll < 0.65:
            entries = [
                (rng.randrange(KEY_SPACE), None if rng.random() < 0.25 else rng.randbytes(24))
                for _ in range(rng.randrange(2, 6))
            ]
            ops.append(("batch", entries))
        elif roll < 0.80:
            ops.append(("get", rng.randrange(KEY_SPACE)))
        elif roll < 0.92:
            ops.append(("scan", rng.randrange(KEY_SPACE), rng.randrange(1, 12)))
        else:
            ops.append(("sequence",))
    return ops


def apply_batch(store, entries) -> None:
    """Apply one batch through the store's atomic ``write_batch``."""
    batch = WriteBatch()
    for index, value in entries:
        if value is None:
            batch.delete(key_of(index))
        else:
            batch.put(key_of(index), value)
    store.write_batch(batch)


def check_equivalence(store, model, rng) -> None:
    """Reads through every API must agree with the model right now."""
    # Point gets: a sample of the key space (hits and misses both).
    for index in rng.sample(range(KEY_SPACE), 30):
        key = key_of(index)
        assert store.get(key) == model.get(key), f"get mismatch at {key!r}"
    # A bounded scan from a random start.
    start = key_of(rng.randrange(KEY_SPACE))
    expected = sorted(
        (key, value) for key, value in model.items() if key >= start
    )[:20]
    assert store.scan(start, 20) == expected
    # Full logical contents, key-ordered.
    assert list(store.logical_items()) == sorted(model.items())


def run_differential(policy_name: str, bg_threads: int, seed: int):
    """Drive the seeded workload; verify at checkpoints and at the end."""
    store = DB(config=make_config(bg_threads), policy=policy_name)
    model = {}
    check_rng = random.Random(seed ^ 0xD1FF)
    last_sequence = 0
    for position, op in enumerate(make_workload(seed)):
        kind = op[0]
        if kind == "put":
            _, index, value = op
            store.put(key_of(index), value)
            model[key_of(index)] = value
        elif kind == "delete":
            _, index = op
            store.delete(key_of(index))
            model.pop(key_of(index), None)
        elif kind == "batch":
            apply_batch(store, op[1])
            for index, value in op[1]:
                if value is None:
                    model.pop(key_of(index), None)
                else:
                    model[key_of(index)] = value
        elif kind == "get":
            key = key_of(op[1])
            assert store.get(key) == model.get(key)
        elif kind == "scan":
            start = key_of(op[1])
            expected = sorted(
                (key, value) for key, value in model.items() if key >= start
            )[: op[2]]
            assert store.scan(start, op[2]) == expected
        else:  # sequence: write sequences are monotone in workload order
            assert store.last_sequence >= last_sequence
            last_sequence = store.last_sequence
        if position + 1 in CHECKPOINTS:
            check_equivalence(store, model, check_rng)
            store.check_invariants()
    check_equivalence(store, model, check_rng)
    store.check_invariants()
    return store, model


SCHED_MODES = (0, 1)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("bg_threads", SCHED_MODES)
def test_matches_model(policy_name, bg_threads):
    run_differential(policy_name, bg_threads, seed=11)


@pytest.mark.parametrize("policy_name", ["udc", "ldc"])
def test_second_seed_single_store(policy_name):
    """A second seed on the scheduled corners (cheap extra coverage)."""
    run_differential(policy_name, bg_threads=1, seed=29)


def test_all_configurations_agree_on_final_contents():
    """Same ops => same logical contents, whatever the engine configuration."""
    contents = set()
    for policy_name in sorted(POLICIES):
        for bg_threads in SCHED_MODES:
            store, _ = run_differential(policy_name, bg_threads, seed=5)
            contents.add(tuple(store.logical_items()))
    assert len(contents) == 1


class TestCrashRecovery:
    """The PR's recovery fix: partial chunks are discarded, not replayed."""

    def drive_until_inflight(self, db, seed=3):
        model = {}
        rng = random.Random(seed)
        attempts = 0
        while not db.sched.in_flight:
            for _ in range(50):
                index = rng.randrange(KEY_SPACE)
                value = rng.randbytes(48)
                db.put(key_of(index), value)
                model[key_of(index)] = value
            attempts += 1
            assert attempts < 100, "workload never left chunks in flight"
        return model

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_crash_discards_partial_chunks(self, policy_name):
        db = DB(config=make_config(bg_threads=1), policy=policy_name)
        model = self.drive_until_inflight(db)
        pending_before = db.sched.pending_chunks()
        assert pending_before > 0
        db.crash_and_recover()
        # The partial chunks died with the process ...
        assert db.sched.pending_chunks() == 0
        assert not db.sched.in_flight
        assert db.registry.counter("sched.chunks_discarded") >= pending_before
        # ... the invariants hold immediately after recovery ...
        db.check_invariants()
        # ... and no acknowledged write was lost (synchronous WAL).
        assert dict(db.logical_items()) == model

    def test_workload_continues_after_crash(self):
        """Crash mid-workload, recover, keep writing: still equivalent."""
        db = DB(config=make_config(bg_threads=1), policy="ldc")
        model = self.drive_until_inflight(db)
        db.crash_and_recover()
        rng = random.Random(99)
        for _ in range(300):
            index = rng.randrange(KEY_SPACE)
            if rng.random() < 0.2:
                db.delete(key_of(index))
                model.pop(key_of(index), None)
            else:
                value = rng.randbytes(32)
                db.put(key_of(index), value)
                model[key_of(index)] = value
        db.sched.drain()
        db.check_invariants()
        assert dict(db.logical_items()) == model

    def test_repeated_crashes(self):
        """Back-to-back crash/recover cycles stay lossless and consistent."""
        db = DB(config=make_config(bg_threads=1), policy="udc")
        model = {}
        rng = random.Random(17)
        for cycle in range(4):
            for _ in range(150):
                index = rng.randrange(KEY_SPACE)
                value = rng.randbytes(40)
                db.put(key_of(index), value)
                model[key_of(index)] = value
            db.crash_and_recover()
            db.check_invariants()
            assert dict(db.logical_items()) == model
