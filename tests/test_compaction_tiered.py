"""Unit tests for the size-tiered lazy baseline."""

import random

import pytest

from repro import DB
from repro.lsm.config import LSMConfig

from tests.conftest import key_of


def fill(db: DB, count: int, key_space: int, seed: int = 1):
    rng = random.Random(seed)
    model = {}
    for index in range(count):
        key = key_of(rng.randrange(key_space))
        value = f"v{index}".encode() + b"x" * 40
        db.put(key, value)
        model[key] = value
    return model


class TestTieredCompaction:
    def test_db_uses_unsorted_levels(self, tiered_db):
        assert tiered_db.version.sorted_levels is False

    def test_contents_preserved(self, tiered_db):
        model = fill(tiered_db, 2500, 600)
        assert dict(tiered_db.logical_items()) == model

    def test_point_reads_correct(self, tiered_db):
        model = fill(tiered_db, 1500, 400)
        for key, value in list(model.items())[:200]:
            assert tiered_db.get(key) == value

    def test_scans_correct(self, tiered_db):
        model = fill(tiered_db, 1500, 400)
        expected = sorted(model.items())[:20]
        assert tiered_db.scan(key_of(0), 20) == expected

    def test_deletes_respected(self, tiered_db):
        model = fill(tiered_db, 1200, 300)
        victim = sorted(model)[0]
        tiered_db.delete(victim)
        assert tiered_db.get(victim) is None

    def test_lower_write_amplification_than_leveled(self, tiny_config):
        """The lazy schemes' selling point: each merge rewrites a level
        once, never reading the target level."""
        results = {}
        for name in ("udc", "tiered"):
            db = DB(config=tiny_config, policy=name)
            fill(db, 6000, 1500, seed=9)
            results[name] = db.metrics().write_amplification
        assert results["tiered"] < results["udc"]

    def test_runs_accumulate_up_to_fanout(self, tiny_config):
        db = DB(config=tiny_config, policy="tiered")
        fill(db, 4000, 1000)
        policy = db.policy
        for level in range(1, db.version.num_levels - 1):
            assert len(policy.layout.level_runs(level)) <= db.config.fan_out

    def test_larger_compaction_granularity_than_ldc(self, tiny_config):
        """The paper's criticism: lazy merges are huge.  Average bytes per
        compaction should exceed LDC's by a wide margin."""
        sizes = {}
        for name in ("tiered", "ldc"):
            db = DB(config=tiny_config, policy=name)
            fill(db, 6000, 1500, seed=11)
            compactions = max(1, db.metrics().get("engine.compaction_count"))
            sizes[name] = db.metrics().compaction_bytes_total / compactions
        assert sizes["tiered"] > sizes["ldc"]
