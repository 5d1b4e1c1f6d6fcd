"""Unit tests for workload specifications (the paper's Table III)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload import WorkloadGenerator
from repro.workload.spec import (
    PAPER_KEY_BYTES,
    PAPER_SCAN_LENGTH,
    PAPER_VALUE_BYTES,
    TABLE_III,
    WorkloadSpec,
    rh,
    ro,
    rwb,
    scn_rh,
    scn_rwb,
    scn_wh,
    wh,
    wo,
)


class TestTableIII:
    """The eight workloads must match the paper's Table III exactly."""

    @pytest.mark.parametrize(
        "factory,name,write_ratio,query_type",
        [
            (wo, "WO", 1.0, "get"),
            (wh, "WH", 0.7, "get"),
            (rwb, "RWB", 0.5, "get"),
            (rh, "RH", 0.3, "get"),
            (ro, "RO", 0.0, "get"),
            (scn_wh, "SCN-WH", 0.7, "scan"),
            (scn_rwb, "SCN-RWB", 0.5, "scan"),
            (scn_rh, "SCN-RH", 0.3, "scan"),
        ],
    )
    def test_mix_definitions(self, factory, name, write_ratio, query_type):
        spec = factory()
        assert spec.name == name
        assert spec.write_ratio == pytest.approx(write_ratio)
        assert spec.query_type == query_type

    def test_paper_sizing_defaults(self):
        """§IV-A: 16-B keys, 1-KB values, SCAN covers 100 pairs."""
        spec = rwb()
        assert spec.key_bytes == PAPER_KEY_BYTES == 16
        assert spec.value_bytes == PAPER_VALUE_BYTES == 1024
        assert scn_rwb().scan_length == PAPER_SCAN_LENGTH == 100

    def test_uniform_is_default(self):
        assert rwb().distribution == "uniform"

    def test_registry_complete(self):
        assert set(TABLE_III) == {
            "WO", "WH", "RWB", "RH", "RO", "SCN-WH", "SCN-RWB", "SCN-RH",
        }

    def test_read_bearing_workloads_preload(self):
        assert wo().preload_keys == 0
        assert rwb().preload_keys > 0
        assert ro().preload_keys > 0

    def test_overrides(self):
        spec = rwb(num_operations=5, key_space=7, seed=9)
        assert spec.num_operations == 5
        assert spec.key_space == 7
        assert spec.seed == 9


class TestValidation:
    def test_bad_write_ratio(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", num_operations=1, write_ratio=1.5)

    def test_bad_query_type(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", num_operations=1, write_ratio=0.5, query_type="join")

    def test_bad_distribution(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                name="x", num_operations=1, write_ratio=0.5, distribution="gaussian"
            )

    def test_zero_operations(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", num_operations=0, write_ratio=0.5)

    def test_bad_zipf_constant(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                name="x",
                num_operations=1,
                write_ratio=0.5,
                distribution="zipf",
                zipf_constant=0.0,
            )

    def test_key_bytes_minimum(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", num_operations=1, write_ratio=0.5, key_bytes=4)

    def test_negative_seed(self):
        """It used to be accepted and then fail in numpy at generation."""
        with pytest.raises(WorkloadError, match="seed must be non-negative"):
            rwb(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_a_seed_that_is_not_an_integer(self, seed):
        """``1.5`` used to fail in numpy at generation; ``True`` ran seed 1."""
        with pytest.raises(WorkloadError, match="seed must be an integer"):
            rwb(seed=seed)

    def test_a_numpy_integer_seed_is_that_integer(self):
        def stream(seed):
            spec = rwb(num_operations=50, key_space=40, seed=seed)
            return list(WorkloadGenerator(spec).operations())

        assert stream(np.int64(3)) == stream(3) != stream(4)

    @pytest.mark.parametrize(
        "field",
        ["num_operations", "key_space", "key_bytes", "value_bytes", "scan_length",
         "preload_keys"],
    )
    @pytest.mark.parametrize("value", [16.0, 16.5, True])
    def test_count_fields_must_be_ints(self, field, value):
        """``scan_length=2.5`` used to pass and then crash every scan of the
        run, ``key_space=100.5`` to be accepted silently, and
        ``num_operations=10.5`` / ``value_bytes=8.5`` to die in numpy or in
        bytes multiplication."""
        with pytest.raises(WorkloadError, match=f"{field} must be an int"):
            scn_wh(**{field: value})
        assert getattr(scn_wh(**{field: 16}), field) == 16


class TestScaling:
    def test_read_ratio_complement(self):
        assert wh().read_ratio == pytest.approx(0.3)
