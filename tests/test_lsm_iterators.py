"""Unit and property tests for the read-side merges.

``merge_streams`` is the window merge scans run through;
``merge_records`` is the record-at-a-time merge it replaced, which lives
on in ``tests/_scan_oracle.py`` as the reference and keeps its own unit
tests here — an oracle is only as good as it is right.
"""

import sys

from hypothesis import given, settings, strategies as st

from repro.lsm.iterators import merge_streams, unit_windows
from repro.lsm.memtable import MemTable
from repro.lsm.record import delete_record, put_record

from ._scan_oracle import merge_records


class File:
    """What the merge reads of an SSTable: its columns and its links."""

    slice_links = ()

    def __init__(self, records):
        self._keys = [record.key for record in records]
        self._records = records


def stream_of(*units) -> list:
    """A stream over sorted record lists: one unopened single-window unit each."""
    return [[], [File(records) for records in units], 0]


def pairs(records) -> list:
    return [(record.key, record.value) for record in records]


class TestMergeStreams:
    """The window merge: ``(live pairs, keys consumed, last key or None)``."""

    def test_empty(self):
        assert merge_streams([], b"", 5) == ([], 0, None)
        assert merge_streams([stream_of([]), stream_of([])], b"", 5) == ([], 0, None)

    def test_single_stream_passthrough(self):
        records = [put_record(b"a", b"1", 1), put_record(b"b", b"2", 2)]
        assert merge_streams([stream_of(records)], b"", 5) == (pairs(records), 2, None)

    def test_interleaves_sorted_and_stops_at_count(self):
        first = [put_record(b"a", b"1", 1), put_record(b"c", b"3", 3)]
        second = [put_record(b"b", b"2", 2), put_record(b"d", b"4", 4)]
        found, consumed, last_key = merge_streams(
            [stream_of(first), stream_of(second)], b"", 3
        )
        assert [key for key, _ in found] == [b"a", b"b", b"c"]
        assert (consumed, last_key) == (3, b"c")

    def test_newest_version_wins_whatever_the_stream_order(self):
        old = [put_record(b"k", b"old", 1)]
        mid = [put_record(b"k", b"mid", 3)]
        new = [put_record(b"k", b"new", 9)]
        for order in ((old, mid, new), (new, old, mid), (mid, new, old)):
            streams = [stream_of(records) for records in order]
            assert merge_streams(streams, b"", 5) == ([(b"k", b"new")], 1, None)

    def test_tombstones_shadow_are_consumed_and_not_returned(self):
        upper = [delete_record(b"b", 5), put_record(b"c", b"3", 6)]
        lower = [put_record(b"a", b"1", 1), put_record(b"b", b"2", 2)]
        found, consumed, last_key = merge_streams(
            [stream_of(upper), stream_of(lower)], b"", 2
        )
        assert found == [(b"a", b"1"), (b"c", b"3")]
        assert (consumed, last_key) == (3, b"c")  # a, the deleted b, c

    def test_later_units_open_only_when_the_open_one_is_used_up(self):
        units = (
            [put_record(b"a", b"1", 1), put_record(b"b", b"2", 2)],
            [put_record(b"c", b"3", 3)],
            [put_record(b"d", b"4", 4)],
        )
        other = [put_record(b"aa", b"x", 9)]
        level = stream_of(*units)
        found, _, last_key = merge_streams([stream_of(other), level], b"", 2)
        assert ([key for key, _ in found], last_key) == ([b"a", b"aa"], b"aa")
        assert len(level[0]) == 1  # b is still unread
        level = stream_of(*units)
        merge_streams([stream_of(other), level], b"", 3)
        assert len(level[0]) == 2  # ended on b, the unit's last key: c reached
        level = stream_of(*units)
        merge_streams([stream_of([]), level], b"", 2)
        assert len(level[0]) == 1  # the only live stream is read lazily
        level = stream_of(*units)
        assert merge_streams([stream_of(other), level], b"", 9)[1:] == (5, None)
        assert len(level[0]) == 3

    def test_unit_windows_start_at_the_first_key_at_or_after_lo(self):
        table = File([put_record(key, b"v", 1) for key in (b"a", b"c", b"e")])
        for lo, pos in ((b"", 0), (b"a", 0), (b"b", 1), (b"e", 2), (b"f", 3)):
            assert unit_windows(table, lo) == [
                [table._keys, table._records, pos, 3, pos, table]
            ]

    def test_memtable_window_is_a_stream_like_any_other(self):
        memtable = MemTable()
        for seq, key in enumerate((b"d", b"b", b"f"), start=10):
            memtable.add(put_record(key, b"m", seq))
        memtable.add(delete_record(b"e", 20))
        lower = [put_record(key, b"l", seq) for seq, key in enumerate((b"b", b"c", b"e"))]
        streams = [[[[memtable.window_from(b"b")]], (), 0], stream_of(lower)]
        found, consumed, last_key = merge_streams(streams, b"b", sys.maxsize)
        assert found == [(b"b", b"m"), (b"c", b"l"), (b"d", b"m"), (b"f", b"m")]
        assert (consumed, last_key) == (5, None)  # b, c, d, the deleted e, f

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 50), st.booleans()),
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 60),
        st.integers(1, 3),
    )
    @settings(max_examples=60)
    def test_matches_the_record_at_a_time_merge(self, raw_sources, count, split):
        """Any set of sorted one-version-per-key runs, cut into units, any count."""
        sources = _sorted_sources(raw_sources)
        merged = list(merge_records(sources))
        live = [record for record in merged if not record.is_tombstone]
        streams = []
        for records in sources:
            size = -(-len(records) // split) or 1
            streams.append(
                stream_of(*(records[at:at + size] for at in range(0, len(records), size)))
            )
        found, consumed, last_key = merge_streams(streams, b"", count)
        assert found == pairs(live[:count])
        if len(live) >= count:
            assert last_key == live[count - 1].key
            assert consumed == merged.index(live[count - 1]) + 1
        else:
            assert (consumed, last_key) == (len(merged), None)


def _sorted_sources(raw_sources) -> list:
    """Store-unique sequence numbers, one version per key within a source."""
    seq = 0
    sources = []
    for raw in raw_sources:
        per_key = {}
        for key_index, is_delete in raw:
            seq += 1
            key = str(key_index).zfill(4).encode()
            per_key[key] = (
                delete_record(key, seq)
                if is_delete
                else put_record(key, str(seq).encode(), seq)
            )  # last one wins within the source
        sources.append([per_key[key] for key in sorted(per_key)])
    return sources


class TestMergeRecords:
    def test_empty_sources(self):
        assert list(merge_records([])) == []
        assert list(merge_records([[], []])) == []

    def test_single_source_passthrough(self):
        records = [put_record(b"a", b"1", 1), put_record(b"b", b"2", 2)]
        assert list(merge_records([records])) == records

    def test_interleaves_sorted(self):
        first = [put_record(b"a", b"1", 1), put_record(b"c", b"3", 3)]
        second = [put_record(b"b", b"2", 2), put_record(b"d", b"4", 4)]
        merged = list(merge_records([first, second]))
        assert [r.key for r in merged] == [b"a", b"b", b"c", b"d"]

    def test_newest_version_wins_across_sources(self):
        old = [put_record(b"k", b"old", 1)]
        new = [put_record(b"k", b"new", 9)]
        assert list(merge_records([old, new])) == new
        assert list(merge_records([new, old])) == new

    def test_three_way_version_conflict(self):
        sources = [
            [put_record(b"k", b"v1", 1)],
            [put_record(b"k", b"v5", 5)],
            [put_record(b"k", b"v3", 3)],
        ]
        merged = list(merge_records(sources))
        assert len(merged) == 1
        assert merged[0].value == b"v5"

    def test_tombstones_not_filtered(self):
        sources = [[delete_record(b"k", 5)], [put_record(b"k", b"v", 1)]]
        merged = list(merge_records(sources))
        assert merged[0].is_tombstone

    def test_generators_accepted(self):
        def gen():
            yield put_record(b"a", b"1", 1)
            yield put_record(b"b", b"2", 2)

        merged = list(merge_records([gen(), iter([put_record(b"aa", b"x", 3)])]))
        assert [r.key for r in merged] == [b"a", b"aa", b"b"]

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 50), st.booleans()),
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40)
    def test_matches_dict_semantics(self, raw_sources):
        """Merging any set of sorted one-version-per-key streams equals
        taking the max-seq record per key."""
        seq = 0
        sources = []
        expected = {}
        for raw in raw_sources:
            per_key = {}
            for key_index, is_delete in raw:
                seq += 1
                key = str(key_index).zfill(4).encode()
                record = (
                    delete_record(key, seq)
                    if is_delete
                    else put_record(key, str(seq).encode(), seq)
                )
                per_key[key] = record  # last one wins within the source
            stream = [per_key[key] for key in sorted(per_key)]
            sources.append(stream)
            for record in stream:
                if (
                    record.key not in expected
                    or record.seq > expected[record.key].seq
                ):
                    expected[record.key] = record
        merged = list(merge_records(sources))
        assert [r.key for r in merged] == sorted(expected)
        assert {r.key: r for r in merged} == expected
