"""Unit and property tests for SSTables: lookups, ranges, block costing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EngineError
from repro.lsm.config import LSMConfig
from repro.lsm.iterators import unit_windows
from repro.lsm.keys import in_range, key_successor
from repro.lsm.record import put_record
from repro.lsm.sstable import SSTable

CONFIG = LSMConfig(
    memtable_bytes=2048,
    sstable_target_bytes=2048,
    block_bytes=256,
    bloom_bits_per_key=10,
)


def make_table(count: int = 50, value_bytes: int = 20, file_id: int = 1) -> SSTable:
    records = [
        put_record(str(i).zfill(8).encode(), b"v" * value_bytes, i) for i in range(count)
    ]
    return SSTable.from_records(file_id, records, CONFIG)


def records_in(table: SSTable, lo, hi) -> list:
    """The naive definition the range queries are checked against."""
    return [record for record in table.records if in_range(record.key, lo, hi)]


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EngineError):
            SSTable.from_records(1, [], CONFIG)

    def test_unsorted_rejected(self):
        records = [put_record(b"b", b"v", 1), put_record(b"a", b"v", 2)]
        with pytest.raises(EngineError, match="sorted"):
            SSTable.from_records(1, records, CONFIG)

    def test_duplicate_keys_rejected(self):
        records = [put_record(b"a", b"v", 1), put_record(b"a", b"w", 2)]
        with pytest.raises(EngineError):
            SSTable.from_records(1, records, CONFIG)

    def test_metadata(self):
        table = make_table(10)
        assert table.min_key == b"00000000"
        assert table.max_key == b"00000009"
        assert table.num_records == 10
        assert table.data_size == sum(r.encoded_size for r in table.records)

    def test_blocks_cover_all_records(self):
        table = make_table(100)
        assert table.num_blocks >= 2
        assert sum(table.block_index()[1]) == table.data_size

    def test_fresh_table_has_no_ldc_state(self):
        table = make_table(5)
        assert table.slice_links == []
        assert table.linked_bytes == 0
        assert not table.frozen
        assert table.refcount == 0


class TestPointLookup:
    def test_hit(self):
        table = make_table(20)
        record = table.get(b"00000007")
        assert record is not None and record.key == b"00000007"

    def test_miss_inside_range(self):
        table = make_table(20)
        assert table.get(b"0000000x") is None

    def test_miss_outside_range(self):
        table = make_table(20)
        assert table.get(b"99999999") is None

    def test_covers_key(self):
        table = make_table(20)
        assert table.covers_key(b"00000010")
        assert not table.covers_key(b"99999999")

    def test_locate_hit_and_miss_inside_range(self):
        """One answer for the charge and the fetch: (record, block, nbytes)."""
        table = make_table(100)
        record, block, nbytes = table.locate(b"00000050")
        assert record is table.get(b"00000050") is not None
        assert nbytes == table.block_index()[1][block]
        # An absent key reads the block its successor lives in.
        assert table.locate(b"0000005x") == (None,) + table.locate(b"00000060")[1:]

    def test_block_bytes_for_key_inside(self):
        table = make_table(100)
        _record, block, nbytes = table.locate(b"00000050")
        assert nbytes in table.block_index()[1]
        assert table.block_span(50, 51) == (block, block + 1)

    def test_block_bytes_for_key_outside_is_zero(self):
        """Outside ``[min_key, max_key]`` there is no block: nothing to charge."""
        table = make_table(10)
        assert table.locate(b"zzzz") is None
        assert table.locate(b"0") is None  # left of the first key

    def test_point_read_cost_is_one_block(self):
        """A point lookup never charges more than the largest block."""
        table = make_table(200)
        for index in range(0, 200, 13):
            key = str(index).zfill(8).encode()
            record, _block, nbytes = table.locate(key)
            assert record.key == key
            assert 0 < nbytes <= max(table.block_index()[1])

    def test_locate_boundary_keys(self):
        table = make_table(200)
        first = table.locate(table.min_key)
        last = table.locate(table.max_key)
        assert first[0].key == table.min_key and first[1] == 0
        assert last[0].key == table.max_key and last[1] == table.num_blocks - 1


class TestRangeQueries:
    def test_records_in_full_range(self):
        """A scan from below the first key reads the file's whole columns."""
        table = make_table(30)
        [[keys, records, pos, stop, start, owner]] = unit_windows(table, b"")
        assert (pos, stop, start, owner) == (0, 30, 0, table)
        assert records is table.records and keys == [r.key for r in records]

    def test_records_in_subrange(self):
        """... and from a key inside it, the tail from that key on."""
        table = make_table(30)
        [[keys, records, pos, stop, _, _]] = unit_windows(table, b"00000010")
        assert records_in(table, b"00000010", None) == records[pos:stop]
        assert keys[pos] == b"00000010" and table.block_span(pos, stop)[1] == table.num_blocks

    def test_empty_range(self):
        table = make_table(30)
        assert table.count_in_range(b"5", b"4") == 0
        assert table.bytes_in_range(b"5", b"4") == 0
        assert table.block_bytes_in_range(b"5", b"4") == 0
        assert table.block_span(7, 7) == table.block_span(9, 2) == (0, 0)

    def test_bytes_in_range_matches_sum(self):
        table = make_table(60)
        lo, hi = b"00000010", b"00000040"
        expected = sum(r.encoded_size for r in records_in(table, lo, hi))
        assert table.bytes_in_range(lo, hi) == expected

    def test_block_span_covers_exactly_the_blocks_of_the_records(self):
        table = make_table(200)
        starts = table.block_index()[0] + [table.num_records]
        for start, stop in ((0, 1), (0, 200), (13, 14), (50, 151), (199, 200)):
            first, end = table.block_span(start, stop)
            assert starts[first] <= start < starts[first + 1]
            assert starts[end - 1] < stop <= starts[end]

    def test_count_in_range(self):
        table = make_table(60)
        assert table.count_in_range(b"00000010", b"00000040") == 30

    def test_block_bytes_at_least_data_bytes(self):
        """Whole blocks are the I/O unit: block cost >= data size."""
        table = make_table(200)
        lo, hi = b"00000050", b"00000150"
        assert table.block_bytes_in_range(lo, hi) >= table.bytes_in_range(lo, hi)

    def test_block_bytes_full_range_is_file_size(self):
        table = make_table(100)
        assert table.block_bytes_in_range(None, None) == table.data_size

    @given(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=40)
    def test_range_queries_consistent(self, a, b):
        table = make_table(100)
        lo = str(min(a, b)).zfill(8).encode()
        hi = str(max(a, b)).zfill(8).encode()
        records = records_in(table, lo, hi)
        assert table.count_in_range(lo, hi) == len(records)
        assert table.bytes_in_range(lo, hi) == sum(r.encoded_size for r in records)
        if records:
            assert table.block_bytes_in_range(lo, hi) >= table.bytes_in_range(lo, hi)
        for record in records:
            assert lo <= record.key < hi

    @given(st.integers(min_value=0, max_value=99))
    @settings(max_examples=30)
    def test_singleton_range_via_successor(self, index):
        """[k, succ(k)) selects exactly key k."""
        table = make_table(100)
        key = str(index).zfill(8).encode()
        assert table.count_in_range(key, key_successor(key)) == 1
        assert table.bytes_in_range(key, key_successor(key)) == table.get(key).encoded_size
