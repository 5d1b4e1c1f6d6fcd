"""Tiny-scale smoke tests for every per-figure experiment entry point.

The benchmarks run these at realistic scale and assert the paper's shapes;
here we only check each function runs end-to-end and returns the expected
structure — fast enough for the unit suite.
"""

import pytest

from repro.cli import FIGURES
from repro.harness import experiments

OPS = 1500
KEYS = 600


class TestFigureExperiments:
    def test_fig01(self):
        out = experiments.fig01_latency_fluctuation(ops=OPS, key_space=KEYS)
        assert out["fluctuation_ratio"] >= 1.0
        assert len(out["points"]) >= 1

    def test_fig01_scheduled_interference(self):
        """Today's one-thread behaviour, pinned until the slowdown-gap half
        of ROADMAP item 11 (a closed loop has no idle gap to replay in).

        The spread asserted here is not a paper claim: with one thread
        the engine replays about one background chunk per operation, so
        LDC's write p50 is the 1 ms Level-0 slowdown and its p99/p50
        spread collapses (~80x for UDC vs ~1.3x for LDC at these
        parameters).  ``benchmarks/claims.py`` lists ``fig01s`` under
        ``UNCLAIMED`` and docs/SCHEDULING.md calls the spread an artefact
        of the starved thread.  Item 11 rewrites these assertions to
        what survives background work that runs in the background, or
        deletes the experiment and this test.
        """
        out = experiments.fig01_scheduled_interference(ops=6000, key_space=3000)
        spreads = out["p99_p50_spread"]
        assert spreads["UDC"] > spreads["LDC"]
        # The interference is real and attributed: both policies throttle,
        # foreground I/O measurably waits behind background chunks, and
        # the timeline's stall attribution marks the spike buckets.
        assert out["stall_time_us"]["UDC"] > 0
        assert out["device_wait_us"]["UDC"] > 0
        assert any(point.stall_us > 0 for point in out["points"]["UDC"])

    def test_fig01_open_loop(self):
        """The serving-layer acceptance claim, pinned at test scale.

        At a fixed offered load above the UDC knee, UDC's queue-inflated
        p99.9 AND its SLO violation rate must be strictly worse than
        LDC's.  Mechanism: with inline compaction (the paper's stock
        setting) UDC charges whole rounds to single triggering writes —
        multi-ms service spikes that build a queue every request behind
        them inherits; LDC's link-and-merge steps are too small to.  The
        margin is 2-4x across seeds and scales, so the strict
        inequalities are far from a knife edge.
        """
        out = experiments.fig01_open_loop(ops=2000, key_space=700)
        head = out["headline"]
        assert head["above_knee"]
        assert head["udc_worse_p999"]
        assert head["udc_worse_slo"]
        assert head["udc_p999_us"] > head["ldc_p999_us"]
        assert head["udc_slo_violation_rate"] > head["ldc_slo_violation_rate"]
        # Both curves cover every tested load, in offered-rate order.
        for policy in ("UDC", "LDC"):
            curve = out["curves"][policy]
            assert len(curve) == len(out["load_fractions"])
            rates = [row["offered_rate_ops_s"] for row in curve]
            assert rates == sorted(rates)

    def test_tab1(self):
        shares = experiments.tab1_time_breakdown(ops=OPS, key_space=KEYS)
        assert set(shares) == {"DoCompactionWork", "file system", "DoWrite", "Others"}
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)

    def test_fig07(self):
        out = experiments.fig07_fanout_udc(fan_outs=(3, 10), ops=OPS, key_space=KEYS)
        assert len(out.rows) == 2
        assert all(row.policy == "UDC" for row in out.rows)

    def test_fig08(self):
        out = experiments.fig08_tail_latency(ops=OPS, key_space=KEYS)
        assert set(out) == {"UDC", "LDC"}
        assert set(out["UDC"]) == {90.0, 99.0, 99.9, 99.99}

    def test_fig09(self):
        out = experiments.fig09_avg_latency(ops=OPS, key_space=KEYS)
        assert out.result_for("WH", "UDC").mean_latency_us > 0
        assert out.result_for("RH", "LDC").mean_latency_us > 0

    def test_fig10a(self):
        out = experiments.fig10a_throughput_get(ops=OPS, key_space=KEYS)
        assert len(out.rows) == 10  # 5 mixes x 2 policies
        assert out.result_for("WO", "LDC").throughput_ops_s > 0

    def test_fig10b(self):
        out = experiments.fig10b_throughput_scan(ops=OPS, key_space=KEYS)
        assert len(out.rows) == 6

    def test_fig10c(self):
        out = experiments.fig10c_compaction_io(ops=OPS, key_space=KEYS)
        assert out.result_for("WO", "UDC").compaction_bytes_total >= 0

    def test_fig11(self):
        out = experiments.fig11_zipf(zipf_constants=(1.0,), ops=OPS, key_space=KEYS)
        names = {row.workload for row in out.rows}
        assert names == {"RWB", "Zipf1"}

    def test_fig12ad(self):
        out = experiments.fig12ad_slicelink_threshold(
            thresholds=(2, 10), ops=OPS, key_space=KEYS
        )
        labels = {row.workload for row in out.rows}
        assert labels == {"T_s=2", "T_s=10", "reference"}

    def test_fig12be(self):
        out = experiments.fig12be_fanout_sweep(fan_outs=(4,), ops=OPS, key_space=KEYS)
        assert len(out.rows) == 2

    def test_fig12cf(self):
        out = experiments.fig12cf_bloom_rwb(bits_per_key=(10,), ops=OPS, key_space=KEYS)
        assert len(out.rows) == 2

    def test_fig13(self):
        out = experiments.fig13_bloom_ro(bits_per_key=(4, 16), ops=OPS, key_space=KEYS)
        assert set(out) == {4, 16}
        assert out[4]["block_reads"] >= out[16]["block_reads"]
        assert out[16]["filter_bytes_per_table"] == 4 * out[4]["filter_bytes_per_table"]

    def test_fig14(self):
        out = experiments.fig14_scalability(request_counts=(OPS,))
        assert len(out.rows) == 2

    def test_fig15(self):
        out = experiments.fig15_space(request_counts=(OPS,))
        ldc = out.result_for(f"N={OPS}", "LDC")
        assert ldc.space_bytes >= ldc.live_bytes

    def test_missing_row_raises(self):
        out = experiments.fig14_scalability(request_counts=(OPS,))
        with pytest.raises(KeyError):
            out.result_for("nope", "UDC")


class TestAblations:
    def test_adaptive(self):
        out = experiments.ablation_adaptive_threshold(ops=OPS, key_space=KEYS)
        assert len(out.rows) == 6
        adaptive = out.result_for("WH", "LDC-adaptive")
        assert adaptive.final_threshold is not None

    def test_tiered(self):
        out = experiments.ablation_tiered_tail(ops=OPS, key_space=KEYS)
        policies = {row.policy for row in out.rows}
        assert policies == {"UDC", "LDC", "Tiered", "Delayed"}

    def test_asymmetry(self):
        out = experiments.ablation_device_asymmetry(
            write_bandwidths=(250.0, 2000.0), ops=OPS, key_space=KEYS
        )
        assert len(out.rows) == 4


class TestDeviceWA:
    def test_fig_device_wa_structure(self, capsys):
        report = experiments.fig_device_wa(ops=OPS, key_space=KEYS)
        points = report["points"]
        policies = [task.policy_label for task, _ in points]
        assert sorted(policies) == sorted(experiments.available_policies())
        for _, result in points:
            assert result.device_write_amplification >= 1.0
            assert result.total_write_amplification == pytest.approx(
                result.write_amplification * result.device_write_amplification,
                rel=1e-6,
            )
            assert result.blocks_erased >= 0
        winner, _ = min(points, key=lambda p: p[1].total_write_amplification)
        (best,) = report["winners"].values()
        assert best["total_write_amplification"] == winner.policy_label
        # Capacity comes from the flash-off UDC probe times the margin.
        probe = experiments.run_workload(
            experiments.paper_mix("RWB", OPS, KEYS), "udc"
        )
        assert report["flash"].logical_bytes == max(
            int(probe.space_bytes * experiments.DEVICE_WA_SIZE_MARGIN), 1 << 20
        )
        FIGURES["fig_device_wa"].show(report)
        rendered = capsys.readouterr().out
        assert "total WA" in rendered and "lowest total WA" in rendered

    def test_sized_flash_spec_rejects_bad_op(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            experiments.sized_flash_spec(
                experiments.paper_mix("RWB", OPS, KEYS), over_provisioning=-0.5
            )
