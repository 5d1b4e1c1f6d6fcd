"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    ClosedError,
    CompactionError,
    ConfigError,
    DeviceError,
    EngineError,
    FlashFullError,
    ReproError,
    WorkloadError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigError, DeviceError, EngineError, CompactionError, WorkloadError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_closed_is_engine_error(self):
        assert issubclass(ClosedError, EngineError)

    def test_compaction_is_engine_error(self):
        assert issubclass(CompactionError, EngineError)

    def test_flash_full_is_device_error_with_occupancy(self):
        assert issubclass(FlashFullError, DeviceError)
        error = FlashFullError("flash device full", 90, 96)
        assert (error.live_pages, error.capacity_pages) == (90, 96)
        assert str(error) == "flash device full (90 live of 96 physical pages)"

    def test_catch_all(self):
        """A caller can catch every library error with one except clause."""
        with pytest.raises(ReproError):
            raise CompactionError("boom")

    def test_distinct_branches(self):
        assert not issubclass(DeviceError, EngineError)
        assert not issubclass(WorkloadError, EngineError)
