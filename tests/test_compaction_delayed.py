"""Unit tests for the dCompaction-style delayed baseline."""

import random

import pytest

from repro import DB, get_spec
from repro.errors import ConfigError

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


class TestDelayedCompaction:
    def test_delay_factor_validated(self):
        with pytest.raises(ConfigError):
            get_spec("delayed").derive(delay_factor=0.5).build()

    def test_contents_preserved(self, tiny_config):
        db = DB(config=tiny_config, policy="delayed")
        model = fill(db, 3000, 700)
        assert dict(db.logical_items()) == model

    def test_point_reads_correct(self, tiny_config):
        db = DB(config=tiny_config, policy="delayed")
        model = fill(db, 2000, 500)
        for key, value in list(model.items())[:150]:
            assert db.get(key) == value

    def test_levels_allowed_to_overflow_by_delay_factor(self, tiny_config):
        db = DB(
            config=tiny_config,
            policy=get_spec("delayed").derive(delay_factor=3.0),
        )
        fill(db, 4000, 1000)
        version = db.version
        for level in range(1, version.num_levels - 1):
            assert version.level_score(level) <= 3.0 + 1e-9

    def test_invariants_hold(self, tiny_config):
        db = DB(config=tiny_config, policy="delayed")
        fill(db, 3500, 900)
        db.version.check_invariants()

    def test_fewer_but_bigger_rounds_than_udc(self, tiny_config):
        """The dCompaction trade-off the paper criticises (§I)."""
        results = {}
        for name in ("udc", "delayed"):
            db = DB(config=tiny_config, policy=name)
            fill(db, 8000, 2000, seed=17)
            rounds = db.round_bytes
            results[name] = {
                "count": len(rounds),
                "max": max(rounds, default=0),
                "io": db.metrics().compaction_bytes_total,
            }
        assert results["delayed"]["count"] < results["udc"]["count"]
        assert results["delayed"]["max"] > results["udc"]["max"]

    def test_saves_io_relative_to_udc(self, tiny_config):
        """Batching upper files amortises the lower-level rewrite."""
        io = {}
        for name in ("udc", "delayed"):
            db = DB(config=tiny_config.with_overrides(fan_out=10), policy=name)
            fill(db, 8000, 2000, seed=18)
            io[name] = db.metrics().compaction_bytes_total
        assert io["delayed"] < io["udc"]
