"""Unit tests for UDC (leveled compaction) via the DB facade."""

import random

import pytest

from repro import DB
from repro.lsm.config import LSMConfig
from repro.ssd.metrics import COMPACTION_READ, COMPACTION_WRITE

from tests.conftest import key_of


def fill(db: DB, count: int, key_space: int, seed: int = 1, value_bytes: int = 40):
    rng = random.Random(seed)
    model = {}
    for index in range(count):
        key = key_of(rng.randrange(key_space))
        value = f"v{index}".encode() + b"x" * value_bytes
        db.put(key, value)
        model[key] = value
    return model


class TestLeveledCompaction:
    def test_compactions_happen_under_load(self, udc_db):
        fill(udc_db, 2000, 500)
        snap = udc_db.metrics()
        assert snap.get("engine.compaction_count") + snap.get("engine.trivial_moves") > 0

    def test_level0_stays_bounded(self, udc_db):
        fill(udc_db, 3000, 800)
        assert udc_db.version.num_files(0) <= udc_db.config.l0_stop_trigger

    def test_levels_within_capacity_after_drain(self, udc_db):
        fill(udc_db, 3000, 800)
        udc_db.policy.maybe_compact()
        version = udc_db.version
        for level in range(version.num_levels - 1):
            assert version.level_score(level) <= 1.0 + 1e-9

    def test_structural_invariants_hold(self, udc_db):
        fill(udc_db, 3000, 800)
        udc_db.version.check_invariants()

    def test_contents_preserved(self, udc_db):
        model = fill(udc_db, 2500, 600)
        assert dict(udc_db.logical_items()) == model

    def test_compaction_charges_device(self, udc_db):
        fill(udc_db, 2500, 600)
        snap = udc_db.metrics()
        assert snap[f"device.read.{COMPACTION_READ}.bytes"] > 0
        assert snap[f"device.write.{COMPACTION_WRITE}.bytes"] > 0

    def test_compact_one_returns_false_when_in_shape(self, tiny_config):
        db = DB(config=tiny_config, policy="udc")
        db.put(b"k", b"v")
        db.policy.maybe_compact()
        assert db.policy.compact_one() is False

    def test_trivial_move_does_no_io(self, tiny_config):
        """Sequential non-overlapping data should mostly move, not merge."""
        db = DB(config=tiny_config, policy="udc")
        for index in range(3000):
            db.put(key_of(index), b"v" * 40)  # strictly increasing keys
        assert db.metrics().get("engine.trivial_moves") > 0

    def test_deletions_survive_compaction(self, udc_db):
        model = fill(udc_db, 2000, 400)
        victims = sorted(model)[:100]
        for key in victims:
            udc_db.delete(key)
            del model[key]
        udc_db.policy.maybe_compact()
        for key in victims:
            assert udc_db.get(key) is None
        assert dict(udc_db.logical_items()) == model

    def test_tombstones_eventually_dropped_at_bottom(self, tiny_config):
        db = DB(config=tiny_config, policy="udc")
        for index in range(1500):
            db.put(key_of(index % 300), b"v" * 40)
        for index in range(300):
            db.delete(key_of(index))
        db.flush()
        db.policy.maybe_compact()
        # Everything deleted; after full drains the tombstones that reached
        # the bottom must be gone from the deepest level.
        deepest = db.version.deepest_nonempty_level()
        if deepest >= 0:
            for table in db.version.files(deepest):
                assert all(not r.is_tombstone for r in table.records)

    def test_write_amplification_grows_with_depth(self, tiny_config):
        """More data -> deeper tree -> higher UDC write amplification."""
        shallow = DB(config=tiny_config, policy="udc")
        fill(shallow, 800, 200, seed=3)
        deep = DB(config=tiny_config, policy="udc")
        fill(deep, 8000, 2000, seed=3)
        assert deep.metrics().write_amplification > shallow.metrics().write_amplification


class TestLevel0Expansion:
    def test_overlapping_level0_files_compact_together(self, tiny_config):
        """All transitively overlapping L0 files must descend together,
        otherwise newer versions could be stranded above older ones."""
        db = DB(config=tiny_config, policy="udc")
        fill(db, 4000, 300, seed=5)
        db.policy.maybe_compact()
        model = {}
        rng = random.Random(5)
        for index in range(4000):
            key = key_of(rng.randrange(300))
            model[key] = f"v{index}".encode() + b"x" * 40
        for key, value in model.items():
            assert db.get(key) == value
