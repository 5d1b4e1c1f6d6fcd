"""Tests for trace record / persist / replay."""

import pytest

from repro import DB, get_spec
from repro.errors import WorkloadError
from repro.lsm.config import LSMConfig
from repro.workload import rwb, scn_rwb, wo
from repro.workload.trace import (
    read_trace,
    record_trace,
    replay,
    write_trace,
)
from repro.workload.ycsb import OP_PUT, Operation

SMALL = LSMConfig(
    memtable_bytes=2048,
    sstable_target_bytes=2048,
    block_bytes=512,
    fan_out=4,
    level1_capacity_bytes=4096,
)


class TestRecord:
    def test_record_length(self):
        ops = record_trace(rwb(num_operations=50, key_space=20, value_bytes=8))
        assert len(ops) == 50

    def test_record_with_preload(self):
        spec = rwb(num_operations=10, key_space=20, preload_keys=20, value_bytes=8)
        ops = record_trace(spec, include_preload=True)
        assert len(ops) == 30

    def test_record_deterministic(self):
        spec = rwb(num_operations=40, key_space=20, value_bytes=8, seed=3)
        assert record_trace(spec) == record_trace(spec)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        spec = scn_rwb(
            num_operations=80, key_space=30, value_bytes=16, scan_length=7,
            delete_ratio=0.2,
        )
        ops = record_trace(spec)
        path = tmp_path / "trace.txt"
        count = write_trace(ops, path, name="RWB-mixed")
        assert count == 80
        assert list(read_trace(path)) == ops

    def test_header_written(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace([Operation(OP_PUT, b"k", b"v")], path, name="demo")
        first = path.read_text().splitlines()[0]
        assert first.startswith("# repro-trace v1")
        assert "name=demo" in first

    def test_binary_keys_survive(self, tmp_path):
        ops = [Operation(OP_PUT, bytes(range(256)), b"\x00\xff")]
        path = tmp_path / "bin.txt"
        write_trace(ops, path)
        assert list(read_trace(path)) == ops

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.txt"
        assert write_trace([], path) == 0
        assert list(read_trace(path)) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a trace\n")
        with pytest.raises(WorkloadError, match="header"):
            list(read_trace(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("# repro-trace v1 name=x ops=1\nput zz\n")
        with pytest.raises(WorkloadError, match="malformed"):
            list(read_trace(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("# repro-trace v1 name=x ops=1\nfrobnicate 6b\n")
        with pytest.raises(WorkloadError):
            list(read_trace(path))


class TestReplay:
    def test_replay_returns_model(self):
        spec = wo(num_operations=300, key_space=100, value_bytes=16, delete_ratio=0.2)
        ops = record_trace(spec)
        db = DB(config=SMALL, policy="udc")
        model = replay(db, ops)
        assert dict(db.logical_items()) == model

    def test_same_trace_same_contents_across_policies(self, tmp_path):
        """The point of traces: byte-identical streams across engines."""
        spec = rwb(num_operations=500, key_space=150, value_bytes=16, seed=9)
        path = tmp_path / "shared.txt"
        write_trace(record_trace(spec, include_preload=True), path)
        contents = []
        for policy in ("udc", get_spec("ldc").derive(threshold=10)):
            db = DB(config=SMALL, policy=policy)
            model = replay(db, read_trace(path))
            assert dict(db.logical_items()) == model
            contents.append(dict(db.logical_items()))
        assert contents[0] == contents[1]
