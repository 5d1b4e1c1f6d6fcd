"""Unit tests for record types."""


from repro.lsm.record import (
    KIND_DELETE,
    KIND_PUT,
    RECORD_OVERHEAD_BYTES,
    KVRecord,
    delete_record,
    put_record,
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
