"""Unit tests for SSTable builders (streaming and balanced)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EngineError
from repro.lsm.builder import SSTableBuilder, build_tables
from repro.lsm.config import LSMConfig
from repro.lsm.record import put_record

from tests.conftest import build_balanced_from_records

CONFIG = LSMConfig(
    memtable_bytes=2048,
    sstable_target_bytes=1024,
    block_bytes=256,
)


def records_of(count: int, value_bytes: int = 30):
    return [
        put_record(str(i).zfill(8).encode(), b"v" * value_bytes, i)
        for i in range(count)
    ]


def id_gen():
    counter = itertools.count(1)
    return lambda: next(counter)


class TestStreamingBuilder:
    def test_single_small_file(self):
        tables = build_tables(records_of(5), CONFIG, id_gen())
        assert len(tables) == 1
        assert tables[0].num_records == 5

    def test_splits_at_target_size(self):
        tables = build_tables(records_of(200), CONFIG, id_gen())
        assert len(tables) > 1
        # All but possibly the last file reach the target.
        for table in tables[:-1]:
            assert table.data_size >= CONFIG.sstable_target_bytes

    def test_outputs_are_disjoint_and_ordered(self):
        tables = build_tables(records_of(200), CONFIG, id_gen())
        for left, right in zip(tables, tables[1:]):
            assert left.max_key < right.min_key

    def test_preserves_all_records(self):
        source = records_of(137)
        tables = build_tables(source, CONFIG, id_gen())
        rebuilt = [record for table in tables for record in table.records]
        assert rebuilt == source

    def test_out_of_order_rejected(self):
        builder = SSTableBuilder(CONFIG, id_gen())
        builder.add(put_record(b"b", b"v", 1))
        with pytest.raises(EngineError, match="increasing"):
            builder.add(put_record(b"a", b"v", 2))

    def test_duplicate_key_rejected(self):
        builder = SSTableBuilder(CONFIG, id_gen())
        builder.add(put_record(b"a", b"v", 1))
        with pytest.raises(EngineError):
            builder.add(put_record(b"a", b"w", 2))

    def test_finish_resets_builder(self):
        builder = SSTableBuilder(CONFIG, id_gen())
        builder.add(put_record(b"a", b"v", 1))
        first = builder.finish()
        assert len(first) == 1
        builder.add(put_record(b"a", b"v", 2))  # same key fine after reset
        assert len(builder.finish()) == 1

    def test_empty_finish(self):
        builder = SSTableBuilder(CONFIG, id_gen())
        assert builder.finish() == []

    def test_file_ids_come_from_generator(self):
        tables = build_tables(records_of(200), CONFIG, id_gen())
        assert [t.file_id for t in tables] == list(range(1, len(tables) + 1))


class TestBalancedBuilder:
    """``build_balanced_columns`` — the builder every compaction output uses."""

    def test_empty(self):
        assert build_balanced_from_records([], CONFIG, id_gen()) == []

    def test_no_fragment_files(self):
        """The fix for LDC fragmentation: no output is a tiny sliver."""
        source = records_of(220)  # ~1.2 files of data per old cut rule
        tables = build_balanced_from_records(source, CONFIG, id_gen())
        sizes = [t.data_size for t in tables]
        assert min(sizes) >= 0.5 * CONFIG.sstable_target_bytes

    def test_sizes_roughly_equal(self):
        source = records_of(500)
        tables = build_balanced_from_records(source, CONFIG, id_gen())
        sizes = [t.data_size for t in tables]
        assert max(sizes) <= 2 * min(sizes)

    def test_preserves_all_records(self):
        source = records_of(333)
        tables = build_balanced_from_records(source, CONFIG, id_gen())
        rebuilt = [record for table in tables for record in table.records]
        assert rebuilt == source

    def test_outputs_are_disjoint_and_ordered(self):
        tables = build_balanced_from_records(records_of(300), CONFIG, id_gen())
        for left, right in zip(tables, tables[1:]):
            assert left.max_key < right.min_key

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=30)
    def test_record_conservation_property(self, count):
        source = records_of(count, value_bytes=17)
        tables = build_balanced_from_records(source, CONFIG, id_gen())
        assert sum(t.num_records for t in tables) == count
        assert sum(t.data_size for t in tables) == sum(r.encoded_size for r in source)
