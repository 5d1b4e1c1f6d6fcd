"""Tests for LevelDB-style seek-triggered compaction (opt-in)."""

import pytest

from repro import DB, get_spec
from repro.lsm.config import LSMConfig

from tests.conftest import key_of

#: UDC with seek compaction on: the fanout trigger honours seeks.
SEEK_UDC = get_spec("udc").derive(honor_seeks=True)


def seek_config(**overrides):
    defaults = dict(
        memtable_bytes=2048,
        sstable_target_bytes=2048,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=4096,
        bloom_bits_per_key=0,  # disable Bloom so probes reach the blocks
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


class TestSeekBudget:
    def test_budget_initialised_from_size(self):
        from repro.lsm.record import put_record
        from repro.lsm.sstable import SSTable

        records = [put_record(key_of(i), b"v" * 30, i) for i in range(50)]
        table = SSTable.from_records(1, records, LSMConfig())
        assert table.allowed_seeks == max(100, table.data_size // (16 * 1024))

    def test_unproductive_probes_spend_budget(self):
        db = DB(config=seek_config(), policy=SEEK_UDC)
        for index in range(200):
            db.put(key_of(index), b"v" * 30)
        db.flush()
        table = db.version.files(db.version.deepest_nonempty_level())[0]
        budget = table.allowed_seeks
        # Probe keys inside the range that do not exist.
        db.get(key_of(5) + b"x")
        assert table.allowed_seeks == budget - 1

    def test_productive_probes_do_not_spend_budget(self):
        db = DB(config=seek_config(), policy=SEEK_UDC)
        for index in range(200):
            db.put(key_of(index), b"v" * 30)
        db.flush()
        table = db.version.files(db.version.deepest_nonempty_level())[0]
        budget = table.allowed_seeks
        db.get(key_of(5))
        assert table.allowed_seeks == budget

    def test_disabled_by_default(self):
        db = DB(config=seek_config(), policy="udc")
        for index in range(200):
            db.put(key_of(index), b"v" * 30)
        db.flush()
        table = db.version.files(db.version.deepest_nonempty_level())[0]
        budget = table.allowed_seeks
        for _ in range(20):
            db.get(key_of(5) + b"x")
        assert table.allowed_seeks == budget


class TestSeekTriggeredCompaction:
    def test_exhausted_file_gets_compacted(self):
        db = DB(config=seek_config(), policy=SEEK_UDC)
        for index in range(200):
            db.put(key_of(index), b"v" * 30)
        db.flush()
        db.policy.maybe_compact()
        level = db.version.deepest_nonempty_level()
        if level >= db.version.num_levels - 1:
            pytest.skip("data landed in the bottom level")
        table = db.version.files(level)[0]
        file_id = table.file_id
        probes = table.allowed_seeks
        before = db.metrics()
        for _ in range(probes + 5):
            db.get(key_of(5) + b"x")  # miss inside the table's range
        # The over-probed file must have been compacted (merged away) or
        # trivially moved out of its level.
        moved = (
            not db.version.contains(table)
            or db.version.level_of(table) != level
        )
        assert moved
        moved_by = db.metrics().delta(before)
        assert moved_by.get("engine.compaction_count") + moved_by.get("engine.trivial_moves") > 0

    def test_contents_preserved_through_seek_compactions(self):
        db = DB(config=seek_config(), policy=SEEK_UDC)
        model = {}
        for index in range(300):
            db.put(key_of(index), b"v%d" % index)
            model[key_of(index)] = b"v%d" % index
        db.flush()
        for _ in range(400):
            db.get(key_of(3) + b"x")
        assert dict(db.logical_items()) == model
        db.version.check_invariants()

    def test_other_policies_ignore_the_signal(self):
        """LDC's trigger does not honour seeks: unproductive probes must
        leave the store sound."""
        db = DB(config=seek_config(), policy=get_spec("ldc").derive(threshold=10))
        for index in range(300):
            db.put(key_of(index), b"v" * 30)
        db.flush()
        for _ in range(300):
            db.get(key_of(3) + b"x")
        db.policy.check_invariants()
