"""Measure one workload: passes, pooling, the oracle and the traced pass.

``run_workload`` is what ``run.py`` calls in a fresh process per workload.
Each run repeats *set-up + measured phase* for both compaction policies
(``udc``, ``ldc``) on identical inputs until ``seconds`` of wall time has
been spent, and at least once per sub-seed.  Repeat ``i`` uses sub-seed
``seed * 3 + i % 3``.  Host-time metrics take, for each sub-seed, the median
over its repeats, sum those, and divide by the run's machine slowdown (see
``calibrate.py``); virtual-time metrics are pooled over the first repeat of
each sub-seed (summed counters, concatenated latency samples), which repeats
exactly for a given seed however many repeats fit.  One further pass runs
under cProfile around the measured phase only; it supplies the deterministic
call counts and, when asked, the per-layer rows.

Needs ``src/`` and this directory on ``sys.path`` (``run.py`` sees to it).
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ReproError
from repro.harness.runner import build_db, execute_operations
from repro.obs.snapshot import MetricsSnapshot
from repro.serve import serve_workload
from repro.workload.ycsb import OP_PUT, WorkloadGenerator

from calibrate import REFERENCE_S, Calibrator
from layers import analyse, calls_to, merge, ratio
from workloads import (
    HEADLINE_RATE, POLICIES, SERVE_RATES, SLO_US, SUB_SEEDS, WORKLOADS, Workload,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Share of the slowest operations averaged into ``sim_tail_us``.
TAIL_SHARE = 0.001
RECORD_BYTES = 16 + 1024


# ----------------------------------------------------------------------
# One pass: set up one store, run the measured phase once
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one (policy, sub-seed) pass measured, on both clocks."""

    setup_cpu_s: float
    gen_cpu_s: float
    cpu_s: float
    wall_s: float
    operations: int  # issued (arrived)
    completed: int
    rejected_full: int
    rejected_backpressure: int
    slo_violations: int
    elapsed_us: float
    latencies: np.ndarray  # total (wait + service) virtual latency per op
    wait_us_sum: float
    counters: Dict[str, float]
    gauges: Dict[str, float]
    preload_counters: Dict[str, float]
    space_bytes: int
    live_keys: int
    failures: int
    #: Calibration kernel CPU-seconds, mean of the readings around this pass.
    kernel_s: float


def run_pass(workload: Workload, policy: str, sub_seed: int, smoke: bool,
             rate: float, check: bool, calibrate,
             profiler: Optional[cProfile.Profile] = None) -> Pass:
    """Build, preload, drain, reset; then run and time the measured phase.

    ``calibrate()`` (which also collects garbage) runs just before set-up
    and just after the measured phase; the run scales its host times by the
    mean of all these readings (see calibrate.py).
    """
    wall_start = time.perf_counter()
    kernel_s = calibrate()
    setup_start = time.process_time()
    spec = workload.spec(sub_seed, smoke)
    serve_spec = workload.serve_spec(sub_seed, rate)
    db = build_db(policy, config=workload.config, profile=workload.profile)
    model = {}
    for operation in WorkloadGenerator(spec).preload_operations():
        db.put(operation.key, operation.value)
        model[operation.key] = operation.value
    db.policy.maybe_compact()
    preload_counters = dict(db.metrics().counters)
    db.reset_measurements()
    gen_start = time.process_time()
    operations = list(WorkloadGenerator(spec).operations())
    gen_cpu_s = time.process_time() - gen_start
    setup_cpu_s = time.process_time() - setup_start

    if profiler is not None:
        profiler.enable()
    start = time.process_time()
    if serve_spec is None:
        result = execute_operations(db, operations, workload_name=workload.name)
    else:
        result = serve_workload(spec, policy, serve_spec, db=db)
    cpu_s = time.process_time() - start
    if profiler is not None:
        profiler.disable()
    kernel_s = (kernel_s + calibrate()) / 2
    wall_s = time.perf_counter() - wall_start

    if serve_spec is None:
        issued = completed = result.operations
        rejected_full = rejected_backpressure = violations = 0
        latencies = np.asarray(result.latencies.values, dtype=np.float64)
        wait_us_sum = 0.0
    else:
        issued, completed = result.arrived, result.completed
        rejected_full = result.rejected_full
        rejected_backpressure = result.rejected_backpressure
        violations = result.slo_violations
        latencies = np.asarray(result.total_latencies.values, dtype=np.float64)
        wait_us_sum = float(np.sum(result.wait_latencies.values))

    rejected = rejected_full + rejected_backpressure
    if not rejected:
        model.update(
            (op.key, op.value) for op in operations if op.kind == OP_PUT
        )
    failures = rejected
    if check:
        failures += _oracle(db, model if not rejected else None,
                            workload.crash_check)
    return Pass(
        setup_cpu_s=setup_cpu_s,
        gen_cpu_s=gen_cpu_s,
        cpu_s=cpu_s,
        wall_s=wall_s,
        operations=issued,
        completed=completed,
        rejected_full=rejected_full,
        rejected_backpressure=rejected_backpressure,
        slo_violations=violations,
        elapsed_us=result.elapsed_us,
        latencies=latencies,
        wait_us_sum=wait_us_sum,
        counters=dict(result.metrics.counters),
        gauges=dict(result.metrics.gauges),
        preload_counters=preload_counters,
        space_bytes=db.space_bytes(),
        live_keys=len(model),
        failures=failures,
        kernel_s=kernel_s,
    )


def _oracle(db, model: Optional[dict], crash: bool) -> int:
    """Failures found comparing the store with a dict model of its inputs.

    ``model`` is ``None`` when requests were refused (the refused ones are
    unknown from outside, so only the structural invariants are checked).
    With ``crash`` the store is then crashed, recovered from its WAL, and
    every acknowledged write verified again.
    """
    failures = 0
    for recovered in (False, True) if crash else (False,):
        try:
            if recovered:
                db.crash_and_recover()
            db.check_invariants()
            if model is not None:
                stored = dict(db.logical_items())
                failures += sum(
                    1 for key in model.keys() | stored.keys()
                    if model.get(key) != stored.get(key)
                )
        except ReproError as error:
            sys.stderr.write(f"bench: oracle raised {error!r}\n")
            failures += 1
    return failures


# ----------------------------------------------------------------------
# Metrics from pooled passes
# ----------------------------------------------------------------------
def _sum_counters(dicts: Sequence[Dict[str, float]]) -> Counter:
    total: Counter = Counter()
    for mapping in dicts:
        total.update(mapping)
    return total


def policy_metrics(passes: List[Pass]) -> Dict[str, float]:
    """Virtual-time metrics of one policy, pooled over its sub-seed passes."""
    pooled = len(passes)
    elapsed_us = sum(p.elapsed_us for p in passes)
    latencies = np.concatenate([p.latencies for p in passes])
    snap = MetricsSnapshot(
        t_us=elapsed_us,
        counters=_sum_counters([p.counters for p in passes]),
        gauges=_sum_counters([p.gauges for p in passes]),
    )
    # No user write in the measured phase (``read``): the tree the reads run
    # against was built in set-up, and that build's cost is what is reported.
    write_view = snap if snap.user_bytes_written else MetricsSnapshot(
        t_us=0.0,
        counters=_sum_counters([p.preload_counters for p in passes]),
        gauges=snap.gauges,
    )
    completed = sum(p.completed for p in passes)
    arrived = sum(p.operations for p in passes)
    rejected_full = sum(p.rejected_full for p in passes)
    rejected_bp = sum(p.rejected_backpressure for p in passes)
    total_us = float(np.sum(latencies))
    wait_us = sum(p.wait_us_sum for p in passes)
    reads = snap.get("engine.gets") + snap.get("engine.scans")
    tail_samples = max(1, math.ceil(latencies.size * TAIL_SHARE))

    def busy(*keys: str) -> float:
        return ratio(sum(snap.get(key) for key in keys), elapsed_us)

    return {
        "sim_kops_s": ratio(completed, elapsed_us) * 1e3,
        "sim_mean_us": ratio(total_us, completed),
        "sim_tail_us": float(np.mean(
            np.partition(latencies, -tail_samples)[-tail_samples:])),
        "tail_samples": tail_samples,
        "sim_p50_us": float(np.percentile(latencies, 50)),
        "sim_p999_us": float(np.percentile(latencies, 99.9)),
        "write_amp": write_view.total_write_amplification,
        "space_amp": ratio(
            sum(p.space_bytes for p in passes),
            sum(p.live_keys for p in passes) * RECORD_BYTES,
        ),
        "sim_share.user_read": busy("device.read.user_read.time_us",
                                    "device.read.user_scan.time_us"),
        "sim_share.wal_write": busy("device.write.wal_write.time_us"),
        "sim_share.flush_write": busy("device.write.flush_write.time_us"),
        "sim_share.compaction_read": busy("device.read.compaction_read.time_us"),
        "sim_share.compaction_write": busy(
            "device.write.compaction_write.time_us"),
        "sim_share.gc": busy("device.read.gc_read.time_us",
                             "device.write.gc_write.time_us"),
        "flush_count": snap.get("engine.flush_count") / pooled,
        "compaction_rounds": snap.get("engine.compaction_count") / pooled,
        "compaction_bytes_per_user_byte": ratio(
            snap.compaction_bytes_total, snap.user_bytes_written),
        "stall_share": busy("engine.stall_time_us"),
        "blocks_read_per_get": ratio(
            snap.get("engine.sstable_blocks_read"), reads),
        "cache_hit_rate": snap.cache_hit_ratio,
        "links": snap.get("engine.link_count") / pooled,
        "merges": snap.get("engine.merge_count") / pooled,
        "frozen_space_mb": snap.get("policy.ldc.frozen_space_bytes")
        / pooled / 2**20,
        "device_wa": snap.device_write_amplification,
        "gc_pages_per_host_page": ratio(
            snap.get("flash.gc_pages_relocated"),
            snap.get("flash.host_pages_programmed")),
        "bg_busy_share": busy("sched.bg_busy_us"),
        "device_wait_share": busy("sched.device_wait_us"),
        "wait_share": ratio(wait_us, total_us),
        "mean_service_us": ratio(total_us - wait_us, completed),
        "reject_full_share": ratio(rejected_full, arrived),
        "reject_backpressure_share": ratio(rejected_bp, arrived),
        "slo_violation_rate": ratio(
            sum(p.slo_violations for p in passes) + rejected_full + rejected_bp,
            arrived),
    }


#: policy_metrics keys reported end to end, per policy.
END_TO_END_POLICY = {
    "ldc": ("sim_kops_s", "sim_mean_us", "sim_tail_us", "write_amp", "space_amp"),
    "udc": ("sim_kops_s", "sim_tail_us", "write_amp"),
}
#: policy_metrics keys that are information for the report, not metrics.
REPORT_ONLY = ("tail_samples", "sim_p50_us", "sim_p999_us")


def import_cpu_s(repeats: int = 3) -> float:
    """Median CPU-seconds a fresh interpreter spends importing the engine."""
    code = ("import time, repro, repro.harness.runner, repro.serve; "
            "print(time.process_time())")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    )


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, smoke: bool,
                 pstats_path: Optional[Path] = None) -> dict:
    """Run one workload and return its record.

    The per-layer rows are computed (and the raw profile dumped) only when
    ``pstats_path`` is given.
    """
    workload = WORKLOADS[name]
    calibrate = Calibrator()
    import_raw_s = import_cpu_s()
    repeats: List[Dict[str, Pass]] = []
    spent = 0.0
    while len(repeats) < SUB_SEEDS or spent < seconds:
        index = len(repeats)
        order = POLICIES if index % 2 == 0 else POLICIES[::-1]
        sub_seed = seed * SUB_SEEDS + index % SUB_SEEDS
        # The oracle runs once per sub-seed and policy, outside timed regions.
        passes = {
            policy: run_pass(workload, policy, sub_seed, smoke, HEADLINE_RATE,
                             check=index < SUB_SEEDS, calibrate=calibrate)
            for policy in order
        }
        repeats.append(passes)
        spent += sum(p.wall_s for p in passes.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    profiles = {policy: cProfile.Profile() for policy in POLICIES}
    traced = {
        policy: run_pass(workload, policy, seed * SUB_SEEDS, smoke,
                         HEADLINE_RATE, check=False, calibrate=calibrate,
                         profiler=profiles[policy])
        for policy in POLICIES
    }
    rows = analyse(merge(profiles.values()),
                   sum(p.operations for p in traced.values()))

    pooled = repeats[:SUB_SEEDS]
    virtual = {
        policy: policy_metrics([passes[policy] for passes in pooled])
        for policy in POLICIES
    }
    # How much slower than the reference machine this run's machine was.  One
    # factor per run, from the *mean* of all kernel readings: the machine
    # flips between a fast and a slow state within a run, a pass's CPU time
    # is the time-weighted mix of the two, and only the mean tracks a mix
    # (the median of a two-state sample jumps between the states).
    slowdown = statistics.fmean(
        p.kernel_s for r in repeats for p in r.values()) / REFERENCE_S
    import_s = import_raw_s / slowdown
    cpu_per_repeat = [
        sum(p.cpu_s for p in r.values()) / slowdown for r in repeats]
    setup_per_repeat = [
        sum(p.setup_cpu_s for p in r.values()) / slowdown for r in repeats]
    ops_per_repeat = [sum(p.operations for p in r.values()) for r in repeats]
    kops_per_repeat = sorted(
        ops / 1e3 / cpu for ops, cpu in zip(ops_per_repeat, cpu_per_repeat))

    end_to_end = {
        "setup_s": import_s + _across_sub_seeds(setup_per_repeat) / SUB_SEEDS,
        "host_kops_per_cpu_s": sum(ops_per_repeat[:SUB_SEEDS]) / 1e3
        / _across_sub_seeds(cpu_per_repeat),
        "py_calls_per_op": rows["py_calls_per_op"],
        "peak_rss_mb": peak_rss_mb,
    }
    for policy, keys in END_TO_END_POLICY.items():
        for key in keys:
            end_to_end[f"{policy}.{key}"] = virtual[policy][key]
    problems = [
        f"{metric} is {value!r}" for metric, value in end_to_end.items()
        if not (math.isfinite(value) and value > 0)
    ]

    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "repeats": len(repeats),
        "end_to_end": end_to_end,
        "info": {
            "host_kops_per_cpu_s.min": kops_per_repeat[0],
            "host_kops_per_cpu_s.quartiles": statistics.quantiles(
                kops_per_repeat, n=4),
            "host_kops_per_cpu_s.max": kops_per_repeat[-1],
            "machine_slowdown_x": slowdown,
            "cpu_s.per_repeat": cpu_per_repeat,
            "setup_cpu_s.per_repeat": setup_per_repeat,
            "kernel_s.per_pass": [
                p.kernel_s for r in repeats for p in r.values()],
            **{f"{policy}.{key}": virtual[policy][key]
               for policy in POLICIES for key in REPORT_ONLY},
            **{f"ordering_ok.{key}": virtual["ldc"][key] < virtual["udc"][key]
               for key in ("write_amp", "sim_tail_us")},
        },
    }

    if pstats_path is not None:
        per_layer = {k: v for k, v in rows.items() if k != "py_calls_per_op"}
        for policy in POLICIES:
            per_layer[f"{policy}.cpu_s"] = statistics.median(
                r[policy].cpu_s for r in repeats) / slowdown
            for key, value in virtual[policy].items():
                per_layer[f"{policy}.{key}"] = value
            probes = calls_to(merge([profiles[policy]]),
                              "lsm/bloom.py", "may_contain")
            per_layer[f"{policy}.bloom_skip_rate"] = ratio(
                traced[policy].counters.get("engine.bloom_negative_skips", 0),
                probes)
        per_layer["host_cpu_s.iqr_rel"] = _iqr_rel(cpu_per_repeat)
        per_layer["trace_overhead_x"] = (
            sum(p.cpu_s for p in traced.values()) / slowdown
            / statistics.median(cpu_per_repeat[::SUB_SEEDS]))
        per_layer["workload.gen_kops_per_cpu_s"] = statistics.median(
            sum(p.operations for p in r.values()) / 1e3
            / sum(p.gen_cpu_s for p in r.values()) for r in repeats) * slowdown
        per_layer["import_s"] = import_s
        per_layer["machine_slowdown_x"] = slowdown
        per_layer.update(_rate_sweep(
            workload, seed * SUB_SEEDS, smoke, virtual, calibrate))
        # Cells the workload design predicts idle; a busy one fails the run.
        problems += [
            f"{cell} should be 0 on {name}, is {per_layer[cell]!r}"
            for cell in workload.idle_cells if per_layer[cell] != 0]
        record["per_layer"] = per_layer
        pstats.Stats(*profiles.values()).dump_stats(pstats_path)

    record["attempted"] = sum(p.operations for r in pooled for p in r.values())
    record["failed"] = sum(p.failures for r in pooled for p in r.values())
    record["problems"] = problems
    record["correct"] = record["failed"] == 0 and not problems
    return record


def _rate_sweep(workload: Workload, sub_seed: int, smoke: bool,
                virtual: Dict[str, Dict[str, float]], calibrate) -> Dict[str, float]:
    """Open-loop only: tail at each fixed rate, and the highest rate in limit.

    The headline rate reuses the pooled passes; the other rates run once
    (virtual results are exact).  Closed-loop workloads report zeros.
    """
    rows = {}
    for policy in POLICIES:
        best = 0.0
        for rate in SERVE_RATES:
            tail_per_slo = 0.0
            if workload.open_loop:
                at_rate = virtual[policy] if rate == HEADLINE_RATE else policy_metrics(
                    [run_pass(workload, policy, sub_seed, smoke, rate,
                              check=False, calibrate=calibrate)])
                tail_per_slo = at_rate["sim_p999_us"] / SLO_US
                refused = (at_rate["reject_full_share"]
                           + at_rate["reject_backpressure_share"])
                if tail_per_slo <= 1.0 and not refused:
                    best = max(best, rate / 1e3)
            rows[f"{policy}.rate{rate // 1000}k.p999_per_slo"] = tail_per_slo
        rows[f"{policy}.max_rate_kops_s"] = best
    return rows


def _across_sub_seeds(per_repeat: Sequence[float]) -> float:
    """Sum over sub-seeds of the median over that sub-seed's repeats.

    Every sub-seed counts once, so the inputs' own cost differences average
    out the same way however many repeats fitted into ``--seconds``.
    """
    return sum(statistics.median(per_repeat[k::SUB_SEEDS])
               for k in range(SUB_SEEDS))


def _iqr_rel(values: Sequence[float]) -> float:
    low, _mid, high = statistics.quantiles(values, n=4)
    return ratio(high - low, statistics.median(values))
