"""Tests for WriteBatch and DB.describe()."""

import pytest

from repro import DB, WriteBatch
from repro.errors import EngineError

from tests.conftest import key_of


class TestWriteBatch:
    def test_builder_chaining(self):
        batch = WriteBatch().put(b"a", b"1").delete(b"b").put(b"c", b"3")
        assert len(batch) == 3

    def test_clear(self):
        batch = WriteBatch().put(b"a", b"1")
        batch.clear()
        assert len(batch) == 0

    def test_apply_puts_and_deletes_in_order(self, udc_db):
        udc_db.put(b"x", b"existing")
        batch = (
            WriteBatch()
            .put(b"a", b"1")
            .put(b"a", b"2")  # later entry wins
            .delete(b"x")
            .put(b"b", b"3")
        )
        udc_db.write_batch(batch)
        assert udc_db.get(b"a") == b"2"
        assert udc_db.get(b"b") == b"3"
        assert udc_db.get(b"x") is None

    def test_empty_batch_is_noop(self, udc_db):
        before = udc_db.clock.now()
        udc_db.write_batch(WriteBatch())
        assert udc_db.clock.now() == before

    def test_batch_cheaper_than_individual_puts(self, tiny_config):
        """The point of batching: one WAL request instead of N."""
        config = tiny_config.with_overrides(memtable_bytes=1 << 20)
        single = DB(config=config, policy="udc")
        for index in range(100):
            single.put(key_of(index), b"v" * 20)
        batched = DB(config=config, policy="udc")
        batch = WriteBatch()
        for index in range(100):
            batch.put(key_of(index), b"v" * 20)
        batched.write_batch(batch)
        assert batched.clock.now() < single.clock.now()
        assert dict(batched.logical_items()) == dict(single.logical_items())

    def test_batch_can_trigger_flush_and_compaction(self, tiny_config):
        db = DB(config=tiny_config, policy="ldc")
        batch = WriteBatch()
        for index in range(500):
            batch.put(key_of(index), b"v" * 30)
        db.write_batch(batch)
        assert db.metrics().get("engine.flush_count") > 0
        for index in range(0, 500, 37):
            assert db.get(key_of(index)) == b"v" * 30

    def test_batch_survives_crash_recovery(self, udc_db):
        udc_db.write_batch(WriteBatch().put(b"k", b"v"))
        udc_db.crash_and_recover()
        assert udc_db.get(b"k") == b"v"

    def test_batch_validation(self, udc_db):
        with pytest.raises(EngineError):
            udc_db.write_batch(WriteBatch().put(b"", b"v"))
        with pytest.raises(TypeError):
            udc_db.write_batch(WriteBatch().put(b"k", "nope"))  # type: ignore[arg-type]

    def test_user_bytes_counted(self, udc_db):
        udc_db.write_batch(WriteBatch().put(b"abcd", b"v" * 10))
        assert udc_db.metrics().get("engine.user_bytes_written") == 4 + 10 + 13


class TestDescribe:
    def test_describe_mentions_structure(self, ldc_db):
        for index in range(2000):
            ldc_db.put(key_of(index % 500), b"v" * 40)
        text = ldc_db.describe()
        assert "policy=ldc" in text
        assert "level" in text
        assert "write_amplification=" in text
        assert "flushes=" in text

    def test_describe_on_empty_db(self, udc_db):
        text = udc_db.describe()
        assert "policy=udc" in text
        assert "memtable: 0 records" in text
