"""Unit tests for the analytical performance model (§II-III)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.model import (
    compaction_round_bytes,
    ldc_read_amplification,
    ldc_round_bytes,
    ldc_write_amplification,
    lsm_read_throughput,
    lsm_write_throughput,
    optimal_fanout_search,
    paper_example_2c3,
    total_throughput,
    udc_read_amplification,
    udc_vs_ldc_tail_ratio,
    udc_write_amplification,
    write_tail_latency_us,
)
from repro.model.amplification import tree_height

GIB = float(2**30)
MIB = float(2**20)


class TestTreeHeight:
    def test_log_formula(self):
        # 10 GiB over 2 MiB files at fan-out 10: log10(5120) ~ 3.7.
        height = tree_height(10, 10 * GIB, 2 * MIB)
        assert height == pytest.approx(math.log10(5120), rel=1e-6)

    def test_minimum_one(self):
        assert tree_height(10, MIB, MIB) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            tree_height(1, GIB, MIB)
        with pytest.raises(ConfigError):
            tree_height(10, MIB, GIB)


class TestAmplificationTheorems:
    def test_theorem_21_vs_31_gap_is_fanout(self):
        """Theorem 3.1: LDC removes the O(k) factor from Theorem 2.1."""
        udc = udc_write_amplification(10, 10 * GIB, 2 * MIB)
        ldc = ldc_write_amplification(10, 10 * GIB, 2 * MIB)
        assert udc / ldc == pytest.approx(10.0)

    def test_theorem_22_read_amp(self):
        height = tree_height(10, 10 * GIB, 2 * MIB)
        assert udc_read_amplification(10, 10 * GIB, 2 * MIB, level0_files=4) == (
            pytest.approx(height + 4)
        )

    def test_theorem_32_worst_and_best_case(self):
        height = tree_height(10, 10 * GIB, 2 * MIB)
        worst = ldc_read_amplification(
            10, 10 * GIB, 2 * MIB, bloom_effectiveness=0.0
        )
        best = ldc_read_amplification(
            10, 10 * GIB, 2 * MIB, bloom_effectiveness=1.0
        )
        assert worst == pytest.approx(10 * height)
        assert best == pytest.approx(height)

    def test_bloom_interpolation_monotone(self):
        values = [
            ldc_read_amplification(10, GIB, MIB, bloom_effectiveness=e)
            for e in (0.0, 0.5, 0.9, 1.0)
        ]
        assert values == sorted(values, reverse=True)

    @given(st.integers(2, 50), st.floats(1e9, 1e13), st.floats(1e6, 1e7))
    def test_ldc_never_worse_than_udc_writes(self, fan_out, total, table):
        if total < table:
            return
        assert ldc_write_amplification(fan_out, total, table) <= (
            udc_write_amplification(fan_out, total, table)
        )

    def test_fig7_udc_fanout_tradeoff(self):
        """Fig. 7 / §III-D: neither small nor large fan-out fixes UDC —
        the optimum is small (the paper measured 3) and large fan-outs
        are strictly worse."""
        best = optimal_fanout_search(10 * GIB, 2 * MIB, udc_write_amplification)
        assert best <= 5
        assert udc_write_amplification(100, 10 * GIB, 2 * MIB) > (
            udc_write_amplification(best, 10 * GIB, 2 * MIB)
        )

    def test_ldc_prefers_fatter_trees(self):
        """§IV-G: LDC's best fan-out (~25) is much larger than UDC's (~3)."""
        udc_best = optimal_fanout_search(10 * GIB, 2 * MIB, udc_write_amplification)
        ldc_best = optimal_fanout_search(10 * GIB, 2 * MIB, ldc_write_amplification)
        assert ldc_best > udc_best


class TestThroughputEquations:
    def test_equation_1(self):
        assert lsm_write_throughput(250.0, 10.0) == pytest.approx(25.0)
        assert lsm_read_throughput(2000.0, 4.0) == pytest.approx(500.0)

    def test_equation_2_harmonic_combination(self):
        # Equal rates combine to the same rate.
        assert total_throughput(0.5, 10.0, 10.0) == pytest.approx(10.0)
        # Pure read workload sees only read throughput.
        assert total_throughput(0.0, 1.0, 10.0) == pytest.approx(10.0)

    def test_paper_example_2c3(self):
        """§II-C point 3's worked example: 1.82 -> 2.86 MB/s, +57%."""
        example = paper_example_2c3()
        assert example["before_mbps"] == pytest.approx(1.82, abs=0.01)
        assert example["after_mbps"] == pytest.approx(2.86, abs=0.01)
        assert example["improvement"] == pytest.approx(0.57, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigError):
            lsm_write_throughput(0.0, 2.0)
        with pytest.raises(ConfigError):
            lsm_write_throughput(10.0, 0.5)
        with pytest.raises(ConfigError):
            total_throughput(1.5, 1.0, 1.0)

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.1, 1e4),
        st.floats(0.1, 1e4),
    )
    def test_total_bounded_by_components(self, ratio, th_w, th_r):
        total = total_throughput(ratio, th_w, th_r)
        epsilon = 1e-9 * max(th_w, th_r)
        assert min(th_w, th_r) - epsilon <= total <= max(th_w, th_r) + epsilon


class TestTailLatencyEquation:
    def test_equation_3(self):
        # (k+1) * c * b = 11 * 1 * 2 MiB at 250 MB/s (1 B/us per MB/s).
        round_bytes = compaction_round_bytes(10, 1, 2 * 2**20)
        latency = write_tail_latency_us(round_bytes, 250.0, 0.0, memtable_write_us=1.0)
        assert latency == pytest.approx(round_bytes / 250.0 + 1.0)

    def test_concurrent_reads_steal_bandwidth(self):
        nbytes = compaction_round_bytes(10, 1, 2**20)
        idle = write_tail_latency_us(nbytes, 250.0, 0.0)
        busy = write_tail_latency_us(nbytes, 250.0, 200.0)
        assert busy > idle

    def test_reads_exceeding_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            write_tail_latency_us(100.0, 250.0, 250.0)

    def test_ldc_round_is_smaller(self):
        udc = compaction_round_bytes(10, 1, 2**20)
        ldc = ldc_round_bytes(1, 2**20)
        assert ldc < udc

    def test_predicted_tail_ratio(self):
        """(k+1)/2 = 5.5 at the paper's fan-out; the measured 2.62x is
        below this upper bound, as §III-C anticipates."""
        assert udc_vs_ldc_tail_ratio(10) == pytest.approx(5.5)
        assert udc_vs_ldc_tail_ratio(10) > 2.62
