"""Unit tests for the YCSB-like operation generator."""

import pytest

from repro.errors import WorkloadError
from repro.workload.spec import ro, rwb, scn_rh, scn_rwb, wo
from repro.workload.ycsb import (
    OP_GET,
    OP_PUT,
    OP_SCAN,
    Operation,
    WorkloadGenerator,
)


class TestKeyEncoding:
    def test_fixed_width(self):
        gen = WorkloadGenerator(rwb(key_space=1000))
        assert len(gen.encode_key(0)) == 16
        assert len(gen.encode_key(999)) == 16

    def test_lexicographic_equals_numeric_order(self):
        gen = WorkloadGenerator(rwb(key_space=1000))
        keys = [gen.encode_key(i) for i in range(0, 1000, 37)]
        assert keys == sorted(keys)

    def test_roundtrip(self):
        gen = WorkloadGenerator(rwb(key_space=1000))
        assert gen.decode_key(gen.encode_key(777)) == 777

    def test_out_of_range_rejected(self):
        gen = WorkloadGenerator(rwb(key_space=10))
        with pytest.raises(WorkloadError):
            gen.encode_key(10)
        with pytest.raises(WorkloadError):
            gen.encode_key(-1)

    def test_values_have_requested_size(self):
        gen = WorkloadGenerator(rwb(value_bytes=1024))
        assert len(gen.make_value()) == 1024

    def test_values_are_distinct(self):
        gen = WorkloadGenerator(rwb())
        assert gen.make_value() != gen.make_value()


class TestOperationStream:
    def test_operation_count(self):
        gen = WorkloadGenerator(rwb(num_operations=500, key_space=100))
        assert len(list(gen.operations())) == 500

    def test_write_ratio_approximate(self):
        gen = WorkloadGenerator(rwb(num_operations=4000, key_space=100))
        ops = list(gen.operations())
        writes = sum(1 for op in ops if op.kind == OP_PUT)
        assert writes / len(ops) == pytest.approx(0.5, abs=0.05)

    def test_write_only_has_no_reads(self):
        gen = WorkloadGenerator(wo(num_operations=300, key_space=100))
        assert all(op.kind == OP_PUT for op in gen.operations())

    def test_scan_workload_generates_scans(self):
        gen = WorkloadGenerator(scn_rwb(num_operations=1000, key_space=100))
        kinds = {op.kind for op in gen.operations()}
        assert kinds <= {OP_PUT, OP_SCAN}
        assert OP_SCAN in kinds

    def test_scan_length_from_spec(self):
        gen = WorkloadGenerator(
            scn_rwb(num_operations=200, key_space=100, scan_length=42)
        )
        scans = [op for op in gen.operations() if op.kind == OP_SCAN]
        assert scans and all(op.scan_length == 42 for op in scans)

    def test_deterministic_given_seed(self):
        spec = rwb(num_operations=200, key_space=50, seed=99)
        a = list(WorkloadGenerator(spec).operations())
        b = list(WorkloadGenerator(spec).operations())
        assert a == b

    def test_different_seeds_differ(self):
        a = list(WorkloadGenerator(rwb(num_operations=200, seed=1)).operations())
        b = list(WorkloadGenerator(rwb(num_operations=200, seed=2)).operations())
        assert a != b

    def test_keys_within_key_space(self):
        spec = rwb(num_operations=500, key_space=10)
        gen = WorkloadGenerator(spec)
        for op in gen.operations():
            assert 0 <= gen.decode_key(op.key) < 10


class TestPreload:
    def test_preload_covers_requested_keys(self):
        gen = WorkloadGenerator(rwb(key_space=100, preload_keys=100))
        ops = list(gen.preload_operations())
        assert len(ops) == 100
        assert {gen.decode_key(op.key) for op in ops} == set(range(100))
        assert all(op.kind == OP_PUT for op in ops)

    def test_preload_is_shuffled(self):
        gen = WorkloadGenerator(rwb(key_space=200, preload_keys=200))
        indices = [gen.decode_key(op.key) for op in gen.preload_operations()]
        assert indices != sorted(indices)

    def test_no_preload_for_write_only(self):
        gen = WorkloadGenerator(wo(key_space=100))
        assert list(gen.preload_operations()) == []

    def test_preload_capped_by_key_space(self):
        gen = WorkloadGenerator(rwb(key_space=10, preload_keys=50))
        assert len(list(gen.preload_operations())) == 10


def per_operation_stream(gen: WorkloadGenerator):
    """The generator's stream drawn one operation at a time: one key
    sample, then one op-kind draw per operation, from ``gen``'s own RNG
    streams."""
    spec = gen.spec
    sample, random = gen._dist.sample, gen._op_rng.random
    for _ in range(spec.num_operations):
        key = gen.encode_key(sample())
        if random() < spec.write_ratio:
            yield Operation(OP_PUT, key, gen.make_value())
        elif spec.query_type == "scan":
            yield Operation(OP_SCAN, key, scan_length=spec.scan_length)
        else:
            yield Operation(OP_GET, key)


@pytest.mark.parametrize(
    "distribution, zipf_constant", [("uniform", 1.0), ("zipf", 1.2)],
    ids=["uniform", "zipf"],
)
@pytest.mark.parametrize("mix", (rwb, wo, scn_rh, ro))
def test_blocked_stream_matches_per_operation_sampling(
    mix, distribution, zipf_constant
):
    """The blocked generator emits exactly the per-operation stream: 10,000
    operations cross the 4,096-operation block twice."""
    spec = mix(
        num_operations=10_000, key_space=3_000, distribution=distribution,
        zipf_constant=zipf_constant,
    )
    expected = list(per_operation_stream(WorkloadGenerator(spec)))
    assert list(WorkloadGenerator(spec).operations()) == expected
