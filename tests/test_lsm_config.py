"""Unit tests for engine configuration validation."""

from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.lsm.config import KIB, LSMConfig

#: Every count and byte field of ``LSMConfig``.
INT_FIELDS = [
    "memtable_bytes",
    "sstable_target_bytes",
    "block_bytes",
    "fan_out",
    "level1_capacity_bytes",
    "max_levels",
    "l0_compaction_trigger",
    "l0_slowdown_trigger",
    "l0_stop_trigger",
    "bloom_bits_per_key",
    "block_cache_bytes",
    "bg_threads",
]


class TestLSMConfig:
    def test_defaults_valid(self):
        config = LSMConfig()
        assert config.fan_out == 10
        assert config.memtable_bytes == 64 * KIB

    def test_level_capacity_schedule(self):
        """Definition 2.5: capacities grow by fan_out per level."""
        config = LSMConfig(level1_capacity_bytes=1000, fan_out=10)
        assert config.level_capacity_bytes(1) == 1000
        assert config.level_capacity_bytes(2) == 10_000
        assert config.level_capacity_bytes(3) == 100_000

    def test_level_capacity_undefined_for_level0(self):
        with pytest.raises(ConfigError):
            LSMConfig().level_capacity_bytes(0)

    def test_fan_out_must_be_at_least_two(self):
        with pytest.raises(ConfigError):
            LSMConfig(fan_out=1)

    def test_block_larger_than_sstable_rejected(self):
        with pytest.raises(ConfigError):
            LSMConfig(block_bytes=128 * KIB, sstable_target_bytes=64 * KIB)

    def test_l0_trigger_ordering_enforced(self):
        with pytest.raises(ConfigError, match="triggers"):
            LSMConfig(
                l0_compaction_trigger=8,
                l0_slowdown_trigger=4,
                l0_stop_trigger=12,
            )

    @pytest.mark.parametrize(
        "field",
        [
            "memtable_bytes",
            "sstable_target_bytes",
            "block_bytes",
            "level1_capacity_bytes",
            "max_levels",
        ],
    )
    def test_positive_fields(self, field):
        with pytest.raises(ConfigError):
            LSMConfig(**{field: 0})

    def test_negative_bloom_bits_rejected(self):
        with pytest.raises(ConfigError):
            LSMConfig(bloom_bits_per_key=-1)

    def test_zero_bloom_bits_allowed(self):
        assert LSMConfig(bloom_bits_per_key=0).bloom_bits_per_key == 0

    @pytest.mark.parametrize("bits", [7.5, 10.0, True, False])
    def test_non_int_bloom_bits_rejected_at_config_time(self, bits):
        """A float used to pass here and crash the first get's filter build;
        ``True`` silently meant 1 bit/key."""
        with pytest.raises(ConfigError, match="bloom_bits_per_key"):
            LSMConfig(bloom_bits_per_key=bits)
        with pytest.raises(ConfigError, match="bloom_bits_per_key"):
            LSMConfig().with_overrides(bloom_bits_per_key=bits)

    @pytest.mark.parametrize("field", INT_FIELDS)
    @pytest.mark.parametrize("kind", ["float", "bool"])
    def test_non_int_count_and_byte_fields_rejected(self, field, kind):
        """``max_levels=3.0`` used to pass here and die as a raw TypeError in
        ``DB()``; ``bg_threads=True`` meant one thread, ``fan_out=2.5``
        fractional level capacities."""
        value = float(getattr(LSMConfig(), field)) if kind == "float" else True
        with pytest.raises(ConfigError, match=field):
            LSMConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            LSMConfig().with_overrides(**{field: value})

    def test_every_int_field_is_checked(self):
        declared = {field.name for field in fields(LSMConfig) if field.type == "int"}
        assert declared == set(INT_FIELDS)

    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_int_subclass_other_than_bool_accepted(self, field):
        class Count(int):
            pass

        value = Count(getattr(LSMConfig(), field))
        assert getattr(LSMConfig(**{field: value}), field) == value

    def test_frozen_ratio_bounds(self):
        with pytest.raises(ConfigError):
            LSMConfig(frozen_space_limit_ratio=0.0)
        with pytest.raises(ConfigError):
            LSMConfig(frozen_space_limit_ratio=1.5)

    def test_with_overrides_returns_validated_copy(self):
        config = LSMConfig()
        changed = config.with_overrides(fan_out=25)
        assert changed.fan_out == 25
        assert config.fan_out == 10
        with pytest.raises(ConfigError):
            config.with_overrides(fan_out=0)

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            LSMConfig().fan_out = 3  # type: ignore[misc]
