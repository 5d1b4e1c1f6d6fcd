"""Edge-case tests across modules: boundaries, degenerate inputs, ties."""

import pytest

from repro import DB
from repro.lsm.config import LSMConfig
from repro.lsm.record import put_record
from repro.lsm.wal import WriteAheadLog
from repro.ssd.device import SimulatedSSD
from repro.ssd.profile import ENTERPRISE_PCIE

from tests.conftest import build_balanced_from_records, key_of


class TestBuilderEdges:
    def test_single_record_larger_than_target(self):
        config = LSMConfig(
            memtable_bytes=2048, sstable_target_bytes=2048, block_bytes=512
        )
        huge = put_record(b"k", b"v" * 10_000, 1)
        counter = iter(range(1, 10))
        tables = build_balanced_from_records([huge], config, lambda: next(counter))
        assert len(tables) == 1
        assert tables[0].num_records == 1

    def test_every_record_larger_than_target(self):
        config = LSMConfig(
            memtable_bytes=2048, sstable_target_bytes=2048, block_bytes=512
        )
        records = [put_record(key_of(i), b"v" * 3000, i) for i in range(5)]
        counter = iter(range(1, 100))
        tables = build_balanced_from_records(records, config, lambda: next(counter))
        assert sum(t.num_records for t in tables) == 5
        for left, right in zip(tables, tables[1:]):
            assert left.max_key < right.min_key


class TestMemtableBoundary:
    def test_flush_exactly_at_capacity(self):
        """A record that lands exactly on the threshold must flush."""
        config = LSMConfig(
            memtable_bytes=1000,
            sstable_target_bytes=2048,
            block_bytes=512,
        )
        db = DB(config=config, policy="udc")
        # Each record is 12 + 38 + 13 = 63 bytes; 16 records = 1008 >= 1000.
        for index in range(16):
            db.put(key_of(index), b"v" * 38)
        assert db.metrics().get("engine.flush_count") == 1
        assert db.get(key_of(0)) == b"v" * 38

    def test_single_giant_value_flushes_immediately(self):
        config = LSMConfig(
            memtable_bytes=1000, sstable_target_bytes=2048, block_bytes=512
        )
        db = DB(config=config, policy="udc")
        db.put(b"big", b"v" * 5000)
        assert db.metrics().get("engine.flush_count") == 1
        assert db.get(b"big") == b"v" * 5000


class TestWALBatch:
    def test_append_batch_single_device_write(self):
        device = SimulatedSSD(ENTERPRISE_PCIE)
        wal = WriteAheadLog(device)
        records = [put_record(key_of(i), b"v", i) for i in range(10)]
        total = sum(r.encoded_size for r in records)
        wal.append(records, total)
        assert device.registry.counter("device.write.wal_write.ops") == 1
        assert device.registry.counter("device.write.wal_write.bytes") == total
        assert wal.recover() == records


class TestScanEdges:
    def test_scan_start_beyond_everything(self, udc_db):
        for index in range(50):
            udc_db.put(key_of(index), b"v")
        assert udc_db.scan(b"\xff\xff", 10) == []

    def test_scan_start_before_everything(self, udc_db):
        for index in range(10, 20):
            udc_db.put(key_of(index), b"v")
        result = udc_db.scan(b"\x00", 3)
        assert [k for k, _ in result] == [key_of(10), key_of(11), key_of(12)]

    def test_scan_all_tombstones(self, any_db):
        for index in range(30):
            any_db.put(key_of(index), b"v")
        for index in range(30):
            any_db.delete(key_of(index))
        assert any_db.scan(key_of(0), 100) == []

    def test_scan_count_one(self, any_db):
        any_db.put(b"aa", b"1")
        any_db.put(b"bb", b"2")
        assert any_db.scan(b"a", 1) == [(b"aa", b"1")]


class TestLDCEdges:
    def test_single_key_workload(self, tiny_config):
        """Pathological: every write hits one key; versions collapse."""
        db = DB(config=tiny_config, policy="ldc")
        for index in range(3000):
            db.put(b"hotkey", b"v%06d" % index)
        assert db.get(b"hotkey") == b"v%06d" % 2999
        assert dict(db.logical_items()) == {b"hotkey": b"v%06d" % 2999}

    def test_two_distant_key_clusters(self, tiny_config):
        """Keys in two far-apart ranges exercise responsibility gaps."""
        db = DB(config=tiny_config, policy="ldc")
        model = {}
        for index in range(1500):
            for base in (0, 10**9):
                key = key_of(base + index % 200)
                value = b"v%d" % index
                db.put(key, value)
                model[key] = value
        assert dict(db.logical_items()) == model
        for key in list(model)[:100]:
            assert db.get(key) == model[key]
        db.policy.check_invariants()

    def test_interleaved_delete_reinsert_cycles(self, tiny_config):
        db = DB(config=tiny_config, policy="ldc")
        for cycle in range(6):
            for index in range(300):
                db.put(key_of(index), b"c%d" % cycle)
            for index in range(0, 300, 2):
                db.delete(key_of(index))
        for index in range(300):
            expected = None if index % 2 == 0 else b"c5"
            assert db.get(key_of(index)) == expected


class TestVersionScoringTies:
    def test_equal_scores_pick_deepest_checked_level(self, tiny_config):
        """When several levels tie exactly at score 1.0, one is chosen
        deterministically (no crash, no None)."""
        from repro.lsm.record import put_record
        from repro.lsm.sstable import SSTable
        from repro.lsm.version import VersionSet

        version = VersionSet(tiny_config)
        # Build levels at exactly their capacity.
        for level in (1, 2):
            capacity = tiny_config.level_capacity_bytes(level)
            records = []
            index = 0
            size = 0
            while size < capacity:
                record = put_record(key_of(level * 10_000 + index), b"v" * 50, index)
                records.append(record)
                size += record.encoded_size
                index += 1
            table = SSTable.from_records(level, records, tiny_config)
            version.add_file(level, table)
        picked = version.pick_compaction_level()
        assert picked in (1, 2)
