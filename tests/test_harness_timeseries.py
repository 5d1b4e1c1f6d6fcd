"""Tests for the state sampler."""

import random

import pytest

from repro import DB
from repro.harness.timeseries import StateSampler

from tests.conftest import key_of


def drive(db, sampler, count, key_space, seed=1):
    rng = random.Random(seed)
    for index in range(count):
        db.put(key_of(rng.randrange(key_space)), b"v" * 40)
        sampler.tick()


class TestStateSampler:
    def test_sampling_period(self, udc_db):
        sampler = StateSampler(udc_db, every_ops=100)
        drive(udc_db, sampler, 1000, 300)
        assert len(sampler.samples) == 10
        assert [s.op_index for s in sampler.samples] == list(range(100, 1001, 100))

    def test_bad_period(self, udc_db):
        with pytest.raises(ValueError):
            StateSampler(udc_db, every_ops=0)

    def test_virtual_time_monotone(self, udc_db):
        sampler = StateSampler(udc_db, every_ops=50)
        drive(udc_db, sampler, 500, 200)
        times = sampler.series("virtual_time_us")
        assert times == sorted(times)

    def test_frozen_fields_zero_for_udc(self, udc_db):
        sampler = StateSampler(udc_db, every_ops=100)
        drive(udc_db, sampler, 800, 250)
        assert sampler.peak("frozen_bytes") == 0
        assert sampler.peak("linked_tables") == 0

    def test_frozen_fields_populated_for_ldc(self, ldc_db):
        sampler = StateSampler(ldc_db, every_ops=100)
        drive(ldc_db, sampler, 3000, 800)
        assert sampler.peak("frozen_bytes") > 0
        assert sampler.peak("linked_tables") > 0

    def test_frozen_region_seen_however_the_policy_was_built(self, tiny_config):
        """The sampler reads the region off the link/merge movement, so a
        store built the documented way (``DB(policy="ldc")``) reports it;
        it used to probe an attribute only one policy class forwarded."""
        db = DB(config=tiny_config, policy="ldc")
        sampler = StateSampler(db, every_ops=100)
        drive(db, sampler, 3000, 800)
        assert db.policy.extra_space_bytes() > 0
        sample = sampler.snapshot()
        assert sample.frozen_bytes == db.policy.extra_space_bytes()
        assert sample.frozen_files > 0

        udc = DB(config=tiny_config, policy="udc")
        udc_sampler = StateSampler(udc, every_ops=100)
        drive(udc, udc_sampler, 3000, 800)
        sample = udc_sampler.snapshot()
        assert (sample.frozen_bytes, sample.frozen_files) == (0, 0)

    def test_frozen_region_is_bounded(self, ldc_db):
        """The safety valve visible in the timeseries, not just at the end."""
        sampler = StateSampler(ldc_db, every_ops=50)
        drive(ldc_db, sampler, 4000, 1000)
        for sample in sampler.samples:
            live = sum(sample.level_bytes)
            cap = ldc_db.config.frozen_space_limit_ratio
            slack = 6 * ldc_db.config.sstable_target_bytes
            assert sample.frozen_bytes <= cap * max(live, 1) + slack

    def test_level_structure_recorded(self, udc_db):
        sampler = StateSampler(udc_db, every_ops=200)
        drive(udc_db, sampler, 2000, 600)
        last = sampler.samples[-1]
        assert sum(last.level_files) == udc_db.version.num_files()

    def test_is_bounded_helper(self, udc_db):
        sampler = StateSampler(udc_db, every_ops=100)
        drive(udc_db, sampler, 500, 200)
        assert sampler.is_bounded("frozen_bytes", 0)
        assert not sampler.is_bounded("virtual_time_us", -1.0)
