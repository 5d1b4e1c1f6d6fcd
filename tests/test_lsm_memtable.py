"""Unit tests for the memtable."""

from hypothesis import given, settings, strategies as st

from repro.lsm.memtable import MemTable
from repro.lsm.record import delete_record, put_record

keys = st.binary(min_size=1, max_size=8)


class TestMemTable:
    def test_empty(self):
        table = MemTable()
        assert table.is_empty()
        assert len(table) == 0
        assert table.approximate_bytes == 0
        assert table.get(b"a") is None

    def test_add_and_get(self):
        table = MemTable()
        record = put_record(b"k", b"v", 1)
        table.add(record)
        assert table.get(b"k") == record
        assert not table.is_empty()

    def test_newest_version_replaces(self):
        table = MemTable()
        table.add(put_record(b"k", b"old", 1))
        table.add(put_record(b"k", b"newer", 2))
        assert table.get(b"k").value == b"newer"
        assert len(table) == 1

    def test_tombstones_are_stored(self):
        table = MemTable()
        table.add(put_record(b"k", b"v", 1))
        table.add(delete_record(b"k", 2))
        record = table.get(b"k")
        assert record is not None and record.is_tombstone

    def test_size_accounting_on_overwrite(self):
        table = MemTable()
        table.add(put_record(b"k", b"x" * 100, 1))
        size_large = table.approximate_bytes
        table.add(put_record(b"k", b"x", 2))
        assert table.approximate_bytes < size_large

    def test_iteration_sorted_by_key(self):
        table = MemTable()
        for index, key in enumerate([b"c", b"a", b"b"]):
            table.add(put_record(key, b"v", index))
        assert [record.key for record in table] == [b"a", b"b", b"c"]

    def test_window_from(self):
        """The scan's view: sorted keys from the first >= the start, records by key."""
        table = MemTable()
        for index in (3, 9, 7, 1, 8):
            table.add(put_record(str(index).encode(), b"v", index))
        keys, records, pos, stop, start, owner = table.window_from(b"7")
        assert keys[pos:stop] == [b"7", b"8", b"9"] and start == pos
        assert [records[key].seq for key in keys[pos:stop]] == [7, 8, 9]
        assert owner is None  # no file: nothing to charge the device for
        assert table.window_from(b"95")[2:4] == [5, 5]
        table.add(put_record(b"75", b"v", 10))  # a later insert re-sorts
        keys, _, pos, stop, _, _ = table.window_from(b"7")
        assert keys[pos:stop] == [b"7", b"75", b"8", b"9"]

    @given(
        st.lists(
            st.tuples(keys, st.booleans()),
            max_size=150,
        )
    )
    @settings(max_examples=40)
    def test_size_equals_sum_of_latest_records(self, operations):
        """approximate_bytes always equals the sum over the live set."""
        table = MemTable()
        latest = {}
        for seq, (key, is_delete) in enumerate(operations):
            record = (
                delete_record(key, seq) if is_delete else put_record(key, b"v" * 5, seq)
            )
            table.add(record)
            latest[key] = record
        expected = sum(record.encoded_size for record in latest.values())
        assert table.approximate_bytes == expected
        assert len(table) == len(latest)
