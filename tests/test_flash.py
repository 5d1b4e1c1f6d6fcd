"""Unit tests for the flash layer (repro.ssd.flash): geometry, mapping,
streams, trim, GC victim selection and wear accounting."""

import pytest

from repro import DeviceConfig, FlashSpec, SimulatedSSD
from repro import DB
from repro.errors import ConfigError, DeviceError, FlashFullError
from repro.lsm.config import LSMConfig
from repro.ssd.profile import ENTERPRISE_PCIE, SATA_SSD


def tiny_spec(**overrides):
    params = dict(
        page_bytes=256,
        pages_per_block=4,
        logical_bytes=8 * 1024,
        over_provisioning=0.25,
        gc_reserve_blocks=2,
    )
    params.update(overrides)
    return FlashSpec(**params)


def flash_device(**overrides):
    return SimulatedSSD(DeviceConfig(flash=tiny_spec(**overrides)))


class TestFlashSpec:
    def test_derived_geometry(self):
        spec = tiny_spec()
        assert spec.block_bytes == 1024
        assert spec.logical_pages == 32
        # ceil(32 * 1.25) = 40 pages -> 10 blocks, + 2 reserve.
        assert spec.total_blocks == 12
        assert spec.total_pages == 48
        assert spec.physical_bytes == 48 * 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page_bytes": 0},
            {"pages_per_block": 0},
            {"logical_bytes": 0},
            {"over_provisioning": -0.1},
            {"gc_reserve_blocks": 0},
            {"erase_us": -1.0},
            {"gc_policy": "oracle"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_spec(**kwargs)

    def test_device_config_name_marks_flash(self):
        assert DeviceConfig().name == ENTERPRISE_PCIE.name
        assert (
            DeviceConfig(profile=SATA_SSD, flash=tiny_spec()).name
            == f"{SATA_SSD.name}+flash"
        )

    def test_device_config_profile_normalised(self):
        device = SimulatedSSD(DeviceConfig(profile=SATA_SSD))
        assert device.profile is SATA_SSD
        assert device.flash is None


class TestMapping:
    def test_write_rounds_up_to_pages(self):
        device = flash_device()
        device.write(1, "flush_write", owner="a")
        device.write(257, "flush_write", owner="b")
        assert len(device.flash.owner_pages["a"]) == 1
        assert len(device.flash.owner_pages["b"]) == 2
        assert device.flash.bytes_programmed == 3 * 256
        device.flash.check_invariants()

    def test_untagged_writes_pool_under_one_owner(self):
        device = flash_device()
        device.write(100, "flush_write")
        device.write(100, "flush_write")
        from repro.ssd.flash import UNTAGGED_OWNER

        assert len(device.flash.owner_pages[UNTAGGED_OWNER]) == 2

    def test_stream_programs_only_whole_pages(self):
        device = flash_device()
        device.write(100, "wal_write", owner="wal", stream=True)
        assert device.flash.stream_pending_bytes == 100
        assert device.flash.bytes_programmed == 0
        device.write(200, "wal_write", owner="wal", stream=True)
        # 300 bytes = 1 whole page + 44 pending.
        assert device.flash.bytes_programmed == 256
        assert device.flash.stream_pending_bytes == 44
        assert len(device.flash.owner_pages["wal"]) == 1

    def test_trim_invalidates_and_drops_stream_fill(self):
        device = flash_device()
        device.write(512, "flush_write", owner="a")
        device.write(100, "wal_write", owner="wal", stream=True)
        device.trim("a")
        device.trim("wal")
        assert "a" not in device.flash.owner_pages
        assert device.flash.stream_pending_bytes == 0
        assert device.flash.live_pages == 0
        device.flash.check_invariants()

    def test_running_totals_are_checked_against_a_recount(self):
        device = flash_device()
        device.write(600, "flush_write", owner=7)
        device.write(100, "wal_write", owner="log", stream=True)
        flash = device.flash
        assert (flash.live_pages, flash.stream_pending_bytes) == (3, 100)
        flash.check_invariants()
        flash.live_pages += 1
        with pytest.raises(DeviceError, match="live-page counter 4 != recount 3"):
            flash.check_invariants()
        flash.live_pages -= 1
        flash.stream_pending_bytes -= 1
        with pytest.raises(DeviceError, match="stream-pending counter 99"):
            flash.check_invariants()

    def test_trim_unknown_owner_is_noop(self):
        device = flash_device()
        device.trim("ghost")
        device.flash.check_invariants()

    def test_trim_without_flash_is_free(self):
        device = SimulatedSSD(ENTERPRISE_PCIE)
        before = device.clock.now()
        device.trim("anything")
        assert device.clock.now() == before


class TestGarbageCollection:
    def fill_and_churn(self, device, rounds=40):
        """Overwrite one hot owner until GC must fire."""
        for index in range(rounds):
            owner = f"gen-{index}"
            device.write(1024, "flush_write", owner=owner)
            if index >= 1:
                device.trim(f"gen-{index - 1}")
        return device

    def test_gc_reclaims_stale_blocks(self):
        device = self.fill_and_churn(flash_device())
        flash = device.flash
        assert flash.blocks_erased > 0
        assert device.registry.counter("flash.gc_collections") > 0
        flash.check_invariants()

    def mixed_churn(self, device, rounds=25):
        """Interleave surviving owners into every block so victims are
        part-live, part-stale — GC must relocate, not just erase.  Three
        pages per round deliberately misaligns rounds with the 4-page
        blocks, so no block ever becomes fully stale on its own."""
        for index in range(rounds):
            device.write(256, "flush_write", owner=f"keep-{index}")
            device.write(512, "flush_write", owner=f"gen-{index}")
            if index >= 1:
                device.trim(f"gen-{index - 1}")
        return device

    def test_gc_traffic_charged_to_clock_and_counters(self):
        device = self.mixed_churn(flash_device())
        relocated = device.registry.counter("flash.gc_pages_relocated")
        assert relocated > 0
        assert (
            device.registry.counter("device.write.gc_write.bytes")
            == relocated * 256
        )
        assert device.registry.counter("device.read.gc_read.bytes") > 0
        # Kept owners survived every relocation intact.
        assert len(device.flash.owner_pages["keep-24"]) == 1
        device.flash.check_invariants()

    def test_wear_accounting_monotone(self):
        device = self.fill_and_churn(flash_device())
        flash = device.flash
        assert sum(flash.erase_counts) == flash.blocks_erased
        assert flash.max_erase_count >= 1
        assert device.wear_bytes == flash.bytes_programmed
        assert (
            device.registry.gauge("flash.max_erase_count")
            == flash.max_erase_count
        )

    def test_erase_time_charged_when_configured(self):
        charged = flash_device(erase_us=50.0)
        free = flash_device(erase_us=0.0)
        for device in (charged, free):
            self.fill_and_churn(device)
        erases = charged.flash.blocks_erased
        assert erases > 0
        assert (
            charged.registry.counter("flash.erase_time_us")
            == pytest.approx(50.0 * erases)
        )
        assert free.registry.counter("flash.erase_time_us", 0) == 0
        assert charged.clock.now() > free.clock.now()

    def test_device_full_raises(self):
        device = flash_device()
        with pytest.raises(DeviceError):
            # Far more live data than physical capacity, never trimmed.
            for index in range(100):
                device.write(1024, "flush_write", owner=f"live-{index}")

    def test_device_full_is_typed_and_reports_occupancy(self):
        device = flash_device()
        with pytest.raises(FlashFullError) as caught:
            for index in range(100):
                device.write(1024, "flush_write", owner=f"live-{index}")
        flash = device.flash
        assert caught.value.live_pages == flash.live_pages > 0
        assert caught.value.capacity_pages == flash.spec.total_pages
        assert "live of" in str(caught.value)
        # The write that hit the wall stopped part-way; what it did map
        # is still counted.
        flash.check_invariants()

    def test_flash_full_surfaces_through_db_put(self):
        config = LSMConfig(
            memtable_bytes=2048, sstable_target_bytes=2048, block_bytes=512,
            fan_out=4, level1_capacity_bytes=4096, max_levels=6,
        )
        undersized = FlashSpec(
            page_bytes=512, pages_per_block=8, logical_bytes=16 * 1024,
            over_provisioning=0.1,
        )
        db = DB(config=config, policy="udc", profile=DeviceConfig(flash=undersized))
        with pytest.raises(FlashFullError) as caught:
            for index in range(5_000):
                db.put(b"%012d" % index, b"v" * 64)
        assert caught.value.capacity_pages == undersized.total_pages
        assert 0 < caught.value.live_pages <= caught.value.capacity_pages

    def test_cost_benefit_prefers_stale_over_recent(self):
        device = flash_device(gc_policy="cost_benefit")
        self.fill_and_churn(device)
        device.flash.check_invariants()
        assert device.flash.blocks_erased > 0

    @pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
    def test_gc_is_deterministic(self, policy):
        def run():
            device = flash_device(gc_policy=policy)
            self.mixed_churn(device)
            return (
                device.flash.bytes_programmed,
                device.flash.blocks_erased,
                list(device.flash.erase_counts),
                device.clock.now(),
            )

        assert run() == run()
