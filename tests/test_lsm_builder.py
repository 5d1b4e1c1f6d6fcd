"""Unit tests for the SSTable cuts: greedy (flush) and balanced (compaction)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.lsm.builder import build_greedy_columns
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


def flush_cut(records, config, next_file_id):
    """``build_greedy_columns`` over a sorted record list, as a flush
    hands it the memtable's key and record columns."""
    return build_greedy_columns(
        [record.key for record in records], list(records), config, next_file_id
    )


class TestStreamingBuilder:
    """The flush cut: a file closes with the first record that brings it
    to the target size, and the remainder is the last file."""

    def test_single_small_file(self):
        tables = flush_cut(records_of(5), CONFIG, id_gen())
        assert len(tables) == 1
        assert tables[0].num_records == 5

    def test_splits_at_target_size(self):
        tables = flush_cut(records_of(200), CONFIG, id_gen())
        assert len(tables) > 1
        # All but possibly the last file reach the target.
        for table in tables[:-1]:
            assert table.data_size >= CONFIG.sstable_target_bytes

    def test_outputs_are_disjoint_and_ordered(self):
        tables = flush_cut(records_of(200), CONFIG, id_gen())
        for left, right in zip(tables, tables[1:]):
            assert left.max_key < right.min_key

    def test_preserves_all_records(self):
        source = records_of(137)
        tables = flush_cut(source, CONFIG, id_gen())
        rebuilt = [record for table in tables for record in table.records]
        assert rebuilt == source

    def test_empty_finish(self):
        assert flush_cut([], CONFIG, id_gen()) == []

    def test_file_ids_come_from_generator(self):
        tables = flush_cut(records_of(200), CONFIG, id_gen())
        assert [t.file_id for t in tables] == list(range(1, len(tables) + 1))

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=120))
    @settings(max_examples=30)
    def test_cuts_are_the_record_at_a_time_cuts(self, count, value_bytes):
        """Each cut is where a running byte total first reaches the target."""
        source = records_of(count, value_bytes)
        expected, pending, total = [], [], 0
        for record in source:
            pending.append(record)
            total += record.size
            if total >= CONFIG.sstable_target_bytes:
                expected.append(pending)
                pending, total = [], 0
        if pending:
            expected.append(pending)
        tables = flush_cut(source, CONFIG, id_gen())
        assert [table.records for table in tables] == expected


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
