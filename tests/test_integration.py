"""Cross-module integration tests.

These exercise the full stack — workload generator driving the DB through
the runner over the simulated device — and the paper's core equivalence:
*all three compaction policies are different schedules over the same
logical store*, so given the same operation stream they must end with
identical logical contents.
"""

import pytest

from repro import DB
from repro.harness.runner import run_workload
from repro.lsm.config import LSMConfig
from repro.ssd.profile import SATA_SSD
from repro.workload import WorkloadGenerator, rwb, wo
from repro.workload.ycsb import OP_DELETE, OP_GET, OP_PUT, OP_SCAN

from tests.conftest import with_deletes

CONFIG = LSMConfig(
    memtable_bytes=2048,
    sstable_target_bytes=2048,
    block_bytes=512,
    fan_out=4,
    level1_capacity_bytes=4096,
)

POLICIES = ("ldc", "tiered", "udc")


def apply_stream(db: DB, spec, delete_every: int = 0) -> dict:
    """Drive a DB with a generated stream, returning the expected contents;
    with ``delete_every`` every that-many-th put is a delete instead."""
    generator = WorkloadGenerator(spec)
    model = {}
    for op in generator.preload_operations():
        db.put(op.key, op.value)
        model[op.key] = op.value
    operations = generator.operations()
    if delete_every:
        operations = with_deletes(operations, delete_every)
    for op in operations:
        if op.kind == OP_PUT:
            db.put(op.key, op.value)
            model[op.key] = op.value
        elif op.kind == OP_DELETE:
            db.delete(op.key)
            model.pop(op.key, None)
        elif op.kind == OP_GET:
            db.get(op.key)
        elif op.kind == OP_SCAN:
            db.scan(op.key, op.scan_length)
    return model


class TestPolicyEquivalence:
    def test_same_stream_same_contents(self):
        """UDC, LDC and tiered must agree on the final logical store."""
        spec = rwb(
            num_operations=3000,
            key_space=800,
            value_bytes=48,
            preload_keys=400,
            seed=21,
        )
        contents = {}
        for name in POLICIES:
            db = DB(config=CONFIG, policy=name)
            model = apply_stream(db, spec, delete_every=10)
            db.check_invariants()
            contents[name] = dict(db.logical_items())
            assert contents[name] == model, f"{name} diverged from the model"
        assert contents["udc"] == contents["ldc"] == contents["tiered"]

    def test_policies_disagree_only_on_cost(self):
        """Same workload, same data — different I/O and latency profiles."""
        spec = rwb(num_operations=4000, key_space=900, value_bytes=64, seed=5)
        results = {
            name: run_workload(spec, name, config=CONFIG) for name in POLICIES
        }
        amps = {name: r.write_amplification for name, r in results.items()}
        assert len({round(a, 4) for a in amps.values()}) > 1, (
            "policies should differ in write amplification"
        )


class TestFullStack:
    def test_runner_on_alternate_device(self):
        result = run_workload(
            wo(num_operations=2000, key_space=500, value_bytes=64),
            "udc",
            config=CONFIG,
            profile=SATA_SSD,
        )
        assert result.throughput_ops_s > 0

    def test_long_mixed_run_invariants(self):
        db = DB(config=CONFIG, policy="ldc")
        spec = rwb(
            num_operations=6000,
            key_space=1500,
            value_bytes=48,
            preload_keys=1500,
            seed=33,
        )
        model = apply_stream(db, spec, delete_every=20)
        db.check_invariants()
        assert dict(db.logical_items()) == model
        # Spot-check reads through the public API.
        for key in list(model)[:100]:
            assert db.get(key) == model[key]

    def test_scan_heavy_run(self):
        db = DB(config=CONFIG, policy="ldc")
        spec = rwb(
            num_operations=1500,
            key_space=500,
            value_bytes=48,
            preload_keys=500,
            seed=44,
        ).with_overrides(query_type="scan", scan_length=8)
        model = apply_stream(db, spec)
        db.check_invariants()
        expected = sorted(model.items())[:8]
        assert db.scan(b"0" * 16, 8) == expected

    def test_wear_accounting_consistent(self):
        """Device wear == every write category the engine produced."""
        db = DB(config=CONFIG, policy="ldc")
        apply_stream(db, wo(num_operations=2500, key_space=700, value_bytes=48))
        written = {
            key: value for key, value in db.registry.counters().items()
            if key.startswith("device.write.") and key.endswith(".bytes")
        }
        assert db.device.wear_bytes == sum(written.values())
        assert written["device.write.wal_write.bytes"] > 0
        assert written["device.write.flush_write.bytes"] > 0

    def test_virtual_time_strictly_increases(self):
        db = DB(config=CONFIG, policy="udc")
        last = db.clock.now()
        generator = WorkloadGenerator(
            rwb(num_operations=500, key_space=200, value_bytes=48)
        )
        for op in generator.operations():
            if op.kind == OP_PUT:
                db.put(op.key, op.value)
            else:
                db.get(op.key)
            now = db.clock.now()
            assert now > last
            last = now


class TestDeterminism:
    @pytest.mark.parametrize("name", POLICIES)
    def test_identical_runs_bitwise_equal(self, name):
        spec = rwb(num_operations=1500, key_space=400, value_bytes=48, seed=77)
        first = run_workload(spec, name, config=CONFIG)
        second = run_workload(spec, name, config=CONFIG)
        assert first.elapsed_us == second.elapsed_us
        assert first.total_write_bytes == second.total_write_bytes
        assert first.latencies.percentile(99.9) == second.latencies.percentile(99.9)
        assert first.space_bytes == second.space_bytes
