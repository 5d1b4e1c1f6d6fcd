"""Model validation — the §II/§III equations against the measured engine.

Not a paper figure, but the glue between them: Theorems 2.1/3.1 predict a
fan-out-sized gap in write amplification, equation (2) predicts total
throughput from the read/write split, and equation (3) bounds the tail.
This bench feeds *measured* quantities through the formulas and checks
the predictions point the right way.
"""

from repro.harness.experiments import BOTH_POLICIES
from repro.harness.report import format_table, paper_row
from repro.harness.runner import run_workload
from repro.lsm.config import LSMConfig
from repro.model import (
    ldc_write_amplification,
    total_throughput,
    udc_write_amplification,
)
from repro.workload import rwb

from conftest import run_once


def _measure(ops, keys):
    config = LSMConfig()
    spec = rwb(num_operations=ops, key_space=keys)
    results = {}
    for name, policy in BOTH_POLICIES:
        results[name] = run_workload(spec, policy, config=config)
    return results, config


def test_model_validation(benchmark, bench_ops, bench_keys):
    results, config = run_once(benchmark, lambda: _measure(bench_ops, bench_keys))
    udc, ldc = results["UDC"], results["LDC"]

    total_bytes = max(udc.live_bytes, config.sstable_target_bytes)
    predicted_udc = udc_write_amplification(
        config.fan_out, total_bytes, config.sstable_target_bytes
    )
    predicted_ldc = ldc_write_amplification(
        config.fan_out, total_bytes, config.sstable_target_bytes
    )

    rows = [
        ("UDC write amp", round(predicted_udc, 2), round(udc.write_amplification, 2)),
        ("LDC write amp", round(predicted_ldc, 2), round(ldc.write_amplification, 2)),
        (
            "UDC/LDC amp ratio",
            round(predicted_udc / predicted_ldc, 2),
            round(udc.write_amplification / ldc.write_amplification, 2),
        ),
    ]
    print()
    print(
        format_table(
            ["quantity", "model (Thm 2.1/3.1)", "measured"],
            rows,
            title="Model validation — amplification theorems vs engine:",
        )
    )

    # Equation (2): feeding each policy's measured per-class service rates
    # back through the harmonic combination must reproduce its measured
    # total throughput direction (LDC's balance beats UDC's).
    def effective_rates(result):
        writes = max(1, len(result.write_latencies))
        reads = max(1, len(result.read_latencies))
        write_rate = writes / max(1e-9, sum(result.write_latencies.values) / 1e6)
        read_rate = reads / max(1e-9, sum(result.read_latencies.values) / 1e6)
        return write_rate, read_rate

    udc_w, udc_r = effective_rates(udc)
    ldc_w, ldc_r = effective_rates(ldc)
    eq2_udc = total_throughput(0.5, udc_w, udc_r)
    eq2_ldc = total_throughput(0.5, ldc_w, ldc_r)
    print(paper_row("eq (2) predicts LDC > UDC", "yes", str(eq2_ldc > eq2_udc)))
    print(paper_row("measured LDC > UDC", "yes",
                    str(ldc.throughput_ops_s > udc.throughput_ops_s)))

    # Direction checks: the theorems' ordering shows up in measurements.
    assert udc.write_amplification > ldc.write_amplification
    # The model's k-fold gap is an upper bound for a shallow tree: the
    # measured ratio must lie between 1 and the predicted ratio.
    measured_ratio = udc.write_amplification / ldc.write_amplification
    assert 1.0 < measured_ratio <= predicted_udc / predicted_ldc + 1.0
    # Equation (2) agrees with the measured winner.
    assert (eq2_ldc > eq2_udc) == (
        ldc.throughput_ops_s > udc.throughput_ops_s
    )
