"""Unit tests for the DB facade: API semantics, stalls, recovery, costs."""

import pytest

from repro import DB
from repro.errors import ClosedError, EngineError
from repro.lsm.config import LSMConfig
from repro.ssd.profile import BALANCED_FLASH

from tests.conftest import key_of


class TestBasicAPI:
    def test_put_get_roundtrip(self, any_db):
        any_db.put(b"key", b"value")
        assert any_db.get(b"key") == b"value"

    def test_get_missing_returns_none(self, any_db):
        assert any_db.get(b"nope") is None

    def test_update_shadows(self, any_db):
        any_db.put(b"k", b"v1")
        any_db.put(b"k", b"v2")
        assert any_db.get(b"k") == b"v2"

    def test_delete(self, any_db):
        any_db.put(b"k", b"v")
        any_db.delete(b"k")
        assert any_db.get(b"k") is None

    def test_delete_nonexistent_is_fine(self, any_db):
        any_db.delete(b"ghost")
        assert any_db.get(b"ghost") is None

    def test_empty_value_allowed(self, any_db):
        any_db.put(b"k", b"")
        assert any_db.get(b"k") == b""

    def test_empty_key_rejected(self, any_db):
        with pytest.raises(EngineError):
            any_db.put(b"", b"v")

    def test_non_bytes_rejected(self, any_db):
        with pytest.raises(TypeError):
            any_db.put("str", b"v")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            any_db.put(b"k", "str")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            any_db.get("str")  # type: ignore[arg-type]


class TestScan:
    def test_scan_basic(self, any_db):
        for index in range(100):
            any_db.put(key_of(index), str(index).encode())
        result = any_db.scan(key_of(10), 5)
        assert result == [(key_of(10 + i), str(10 + i).encode()) for i in range(5)]

    def test_scan_skips_deleted(self, any_db):
        for index in range(20):
            any_db.put(key_of(index), b"v")
        any_db.delete(key_of(11))
        result = any_db.scan(key_of(10), 3)
        assert [k for k, _ in result] == [key_of(10), key_of(12), key_of(13)]

    def test_scan_sees_newest_versions(self, any_db):
        for index in range(50):
            any_db.put(key_of(index), b"old")
        any_db.flush()
        any_db.put(key_of(25), b"new")
        result = dict(any_db.scan(key_of(25), 1))
        assert result[key_of(25)] == b"new"

    def test_scan_past_end_returns_partial(self, any_db):
        for index in range(5):
            any_db.put(key_of(index), b"v")
        assert len(any_db.scan(key_of(3), 100)) == 2

    def test_scan_empty_db(self, any_db):
        assert any_db.scan(b"a", 10) == []

    def test_scan_zero_count(self, any_db):
        any_db.put(b"k", b"v")
        assert any_db.scan(b"a", 0) == []

    def test_scan_spanning_levels_and_memtable(self, udc_db):
        """Data spread over memtable, L0 and deeper levels merges in order."""
        for index in range(0, 3000, 2):
            udc_db.put(key_of(index), b"deep")
        udc_db.policy.maybe_compact()
        for index in range(1, 200, 2):
            udc_db.put(key_of(index), b"shallow")
        result = udc_db.scan(key_of(0), 20)
        assert [k for k, _ in result] == [key_of(i) for i in range(20)]


class TestFlushAndWAL:
    def test_flush_moves_memtable_to_level0(self, udc_db):
        udc_db.put(b"k", b"v")
        assert udc_db.version.num_files() == 0
        udc_db.flush()
        assert udc_db.version.num_files() >= 1
        assert udc_db.get(b"k") == b"v"

    def test_flush_empty_is_noop(self, udc_db):
        udc_db.flush()
        assert udc_db.metrics().get("engine.flush_count") == 0

    def test_automatic_flush_on_memtable_full(self, udc_db):
        value = b"v" * 200
        for index in range(50):
            udc_db.put(key_of(index), value)
        assert udc_db.metrics().get("engine.flush_count") > 0

    def test_crash_recovery_replays_wal(self, udc_db):
        udc_db.put(b"durable", b"yes")
        recovered = udc_db.crash_and_recover()
        assert recovered >= 1
        assert udc_db.get(b"durable") == b"yes"

    def test_crash_recovery_after_flush_loses_nothing(self, udc_db):
        udc_db.put(b"a", b"1")
        udc_db.flush()
        udc_db.put(b"b", b"2")
        udc_db.crash_and_recover()
        assert udc_db.get(b"a") == b"1"
        assert udc_db.get(b"b") == b"2"

    def test_recovery_rebuilds_sequence_number(self, udc_db):
        """Satellite: _next_seq is recomputed from the durable maximum."""
        for index in range(30):
            udc_db.put(key_of(index), b"v" * 50)
        last = udc_db.last_sequence
        udc_db.crash_and_recover()
        assert udc_db.last_sequence == last
        udc_db.put(b"after", b"x")
        assert udc_db.last_sequence == last + 1

    def test_recovery_counts_and_charges(self, udc_db):
        from repro.ssd.metrics import WAL_READ

        udc_db.put(b"a", b"1")
        udc_db.put(b"b", b"2")
        recovered = udc_db.crash_and_recover()
        assert recovered == 2
        snap = udc_db.metrics()
        assert snap.get("engine.recoveries") == 1
        assert snap.get("engine.recovered_records") == 2
        assert snap.get(f"device.read.{WAL_READ}.bytes") > 0

    def test_recovery_emits_trace_event(self, tiny_config):
        from repro.obs import EV_RECOVERY, RingBufferSink, Tracer

        ring = RingBufferSink()
        db = DB(
            config=tiny_config,
            policy="udc",
            tracer=Tracer([ring]),
        )
        db.put(b"k", b"v")
        db.crash_and_recover()
        kinds = [event.kind for event in ring.events]
        assert EV_RECOVERY in kinds

    def test_check_invariants_on_healthy_store(self, any_db):
        for index in range(200):
            any_db.put(key_of(index), b"v" * 60)
        any_db.check_invariants()
        any_db.crash_and_recover()
        any_db.check_invariants()

    def test_check_invariants_rederives_every_trusted_size(self, ldc_db):
        """Sizes are read, never recomputed: the invariant check is where a
        wrong one (record, prefix, data_size, block, memtable total) shows."""
        for index in range(403):
            ldc_db.put(key_of(index * 7 % 400), b"v" * 60)
        ldc_db.check_invariants()
        frozen = {
            piece.source.file_id: piece.source
            for table in ldc_db.version.all_tables()
            for piece in table.slice_links
        }
        assert frozen and not ldc_db._memtable.is_empty()
        live = next(iter(ldc_db.version.all_tables()))
        for table in (live, next(iter(frozen.values()))):
            table.locate(table.min_key)  # lay the blocks out
            record = table._records[1]
            table._records[1] = record._replace(size=record.size + 1)
            with pytest.raises(EngineError, match="carries size"):
                ldc_db.check_invariants()
            table._records[1] = record
            for part, index in ((table._size_prefix, 2), (table._block_bytes, 0)):
                part[index] += 1
                with pytest.raises(EngineError, match=f"file {table.file_id}"):
                    ldc_db.check_invariants()
                part[index] -= 1
            table.data_size += 1  # a live file's trips the level counters first
            with pytest.raises(EngineError, match="data_size|byte counter"):
                ldc_db.check_invariants()
            table.data_size -= 1
        memtable = ldc_db._memtable
        key, record = next(iter(memtable._records.items()))
        memtable._records[key] = record._replace(size=record.size - 1)
        with pytest.raises(EngineError, match="carries size"):
            ldc_db.check_invariants()
        memtable._records[key] = record
        memtable._bytes += 1
        with pytest.raises(EngineError, match="memtable counts"):
            ldc_db.check_invariants()
        memtable._bytes -= 1
        ldc_db.check_invariants()

class TestClose:
    def test_close_flushes(self, udc_db):
        udc_db.put(b"k", b"v")
        udc_db.close()
        assert udc_db.version.num_files() >= 1

    def test_operations_after_close_rejected(self, udc_db):
        udc_db.close()
        with pytest.raises(ClosedError):
            udc_db.put(b"k", b"v")
        with pytest.raises(ClosedError):
            udc_db.get(b"k")
        with pytest.raises(ClosedError):
            udc_db.scan(b"k", 1)

    def test_double_close_is_fine(self, udc_db):
        udc_db.close()
        udc_db.close()

    def test_context_manager(self, tiny_config):
        with DB(config=tiny_config, policy="udc") as db:
            db.put(b"k", b"v")
        with pytest.raises(ClosedError):
            db.get(b"k")


class TestVirtualTimeAndStats:
    def test_clock_advances_on_operations(self, udc_db):
        start = udc_db.clock.now()
        udc_db.put(b"k", b"v")
        after_put = udc_db.clock.now()
        assert after_put > start
        udc_db.get(b"k")
        assert udc_db.clock.now() > after_put

    def test_user_bytes_written_tracked(self, udc_db):
        udc_db.put(b"key12345", b"v" * 100)
        record_size = 8 + 100 + 13
        assert udc_db.metrics().get("engine.user_bytes_written") == record_size

    def test_write_amplification_at_least_one_after_flush(self, udc_db):
        for index in range(2000):
            udc_db.put(key_of(index % 500), b"v" * 40)
        assert udc_db.metrics().write_amplification >= 1.0

    def test_reset_measurements(self, udc_db):
        for index in range(500):
            udc_db.put(key_of(index), b"v" * 40)
        udc_db.reset_measurements()
        assert udc_db.metrics().get("engine.puts") == 0
        assert udc_db.metrics().total_bytes_written == 0
        # Contents survive the reset.
        assert udc_db.get(key_of(3)) == b"v" * 40

    def test_activity_share_sums_to_one(self, udc_db):
        for index in range(1000):
            udc_db.put(key_of(index % 300), b"v" * 40)
            if index % 3 == 0:
                udc_db.get(key_of(index % 300))
        share = udc_db.metrics().activity_share()
        assert sum(share.values()) == pytest.approx(1.0)

    def test_space_bytes_includes_frozen_for_ldc(self, tiny_config):
        db = DB(config=tiny_config, policy="ldc")
        for index in range(3000):
            db.put(key_of(index % 800), b"v" * 40)
        assert db.space_bytes() == (
            db.version.total_file_bytes() + db.policy.movement.frozen.space_bytes
        )

    def test_profile_affects_costs(self, tiny_config):
        slow = DB(config=tiny_config, policy="udc")
        fast = DB(
            config=tiny_config, policy="udc", profile=BALANCED_FLASH
        )
        for db in (slow, fast):
            for index in range(2000):
                db.put(key_of(index % 500), b"v" * 40)
        # Same logical work, different virtual time.
        assert slow.clock.now() != fast.clock.now()


class TestBloomEffect:
    def test_bloom_skips_absent_lookups(self, tiny_config):
        db = DB(config=tiny_config, policy="udc")
        for index in range(2000):
            db.put(key_of(index), b"v" * 40)
        db.flush()
        before = db.metrics().get("engine.bloom_negative_skips")
        for index in range(500):
            # Absent keys inside covered ranges: only the Bloom filter can
            # rule them out without a block read.
            db.get(key_of(index) + b"x")
        assert db.metrics().get("engine.bloom_negative_skips") > before

    def test_no_bloom_means_more_block_reads(self, tiny_config):
        reads = {}
        for bits in (0, 10):
            db = DB(
                config=tiny_config.with_overrides(bloom_bits_per_key=bits),
                policy="udc",
            )
            for index in range(2000):
                db.put(key_of(index), b"v" * 40)
            db.flush()
            # Absent keys in covered ranges are where Bloom filters pay off:
            # they share blocks with real keys but need not be read.
            for index in range(300):
                db.get(key_of(index) + b"x")
            reads[bits] = db.metrics().get("engine.sstable_blocks_read")
        assert reads[10] < reads[0]
