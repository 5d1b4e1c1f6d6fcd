"""Unit tests for record types and version-resolution helpers."""

from hypothesis import given, strategies as st

from repro.lsm.record import (
    KIND_DELETE,
    KIND_PUT,
    RECORD_OVERHEAD_BYTES,
    KVRecord,
    delete_record,
    drop_tombstones,
    newest_wins,
    put_record,
    visible_value,
)


class TestConstruction:
    def test_put_record(self):
        record = put_record(b"k", b"v", 7)
        assert record == KVRecord(b"k", 7, KIND_PUT, b"v", 1 + 1 + RECORD_OVERHEAD_BYTES)
        assert not record.is_tombstone

    def test_delete_record(self):
        record = delete_record(b"k", 9)
        assert record.kind == KIND_DELETE
        assert record.is_tombstone
        assert record.value == b""

    def test_encoded_size(self):
        record = put_record(b"abc", b"xyzw", 1)
        assert record.encoded_size == 3 + 4 + RECORD_OVERHEAD_BYTES
        assert record.size == record[4] == 13 + 3 + 4

    def test_tombstone_encoded_size_excludes_value(self):
        record = delete_record(b"abc", 1)
        assert record.encoded_size == 3 + RECORD_OVERHEAD_BYTES
        assert record.size == 13 + 3


class TestNewestWins:
    def test_empty(self):
        assert newest_wins([]) == []

    def test_single(self):
        record = put_record(b"a", b"1", 1)
        assert newest_wins([record]) == [record]

    def test_keeps_highest_seq(self):
        old = put_record(b"a", b"old", 1)
        new = put_record(b"a", b"new", 5)
        assert newest_wins([old, new]) == [new]
        assert newest_wins([new, old]) == [new]

    def test_tombstone_shadows_put(self):
        put = put_record(b"a", b"v", 1)
        tomb = delete_record(b"a", 2)
        assert newest_wins([put, tomb]) == [tomb]

    def test_put_after_delete_resurrects(self):
        tomb = delete_record(b"a", 1)
        put = put_record(b"a", b"v", 2)
        assert newest_wins([tomb, put]) == [put]

    def test_multiple_keys_preserved(self):
        records = [
            put_record(b"a", b"1", 1),
            put_record(b"a", b"2", 3),
            put_record(b"b", b"3", 2),
        ]
        result = newest_wins(records)
        assert [r.key for r in result] == [b"a", b"b"]
        assert result[0].value == b"2"

    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=4),
                st.integers(min_value=0, max_value=10_000),
                st.booleans(),
            ),
            max_size=150,
        )
    )
    def test_matches_dict_model(self, triples):
        """newest_wins over a key-sorted stream == max-seq per key."""
        records = [
            delete_record(key, seq) if is_delete else put_record(key, bytes([seq % 256]), seq)
            for key, seq, is_delete in triples
        ]
        # Make seqs unique to avoid tie ambiguity, then sort by key.
        records = [
            r._replace(seq=index) for index, r in enumerate(records)
        ]
        records.sort(key=lambda r: (r.key, r.seq))
        expected = {}
        for record in records:
            if record.key not in expected or record.seq > expected[record.key].seq:
                expected[record.key] = record
        result = newest_wins(records)
        assert {r.key: r for r in result} == expected
        assert [r.key for r in result] == sorted(expected)


class TestHelpers:
    def test_drop_tombstones(self):
        records = [put_record(b"a", b"1", 1), delete_record(b"b", 2)]
        assert drop_tombstones(records) == [records[0]]

    def test_visible_value(self):
        assert visible_value(None) is None
        assert visible_value(delete_record(b"a", 1)) is None
        assert visible_value(put_record(b"a", b"v", 1)) == b"v"
