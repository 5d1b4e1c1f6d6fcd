"""Per-figure experiment definitions.

One function per table/figure of the paper's evaluation (§IV), each
returning plain data structures the benchmarks print and compare against
the paper's reported numbers.  All experiments share the simulation-scale
defaults (`DEFAULT_OPS` operations over `DEFAULT_KEY_SPACE` keys, 16-B
keys / 1-KB values as in §IV-A) and accept overrides so tests can run tiny
versions and benches can run larger ones.

Every sweep is a list of :class:`GridTask` items — built by :func:`sweep`,
the one ``points x workloads x policies`` cross product — executed by
:func:`run_grid`, which runs them serially by default or across worker
processes when requested (``repro <experiment> --workers N``).  Each grid
point is an independent simulation over its own virtual device, so results
are bit-identical regardless of worker count or scheduling; ``run_grid``
preserves task order in its result list.  A policy is always a registry
name or a :class:`~repro.lsm.compaction.spec.PolicySpec`.

The absolute numbers differ from the paper's (their testbed: C++ LevelDB,
800 GB PCIe SSD, 10–30 M requests; ours: a Python engine over a simulated
device at ~10^5 requests).  What must match — and what the benches assert —
is the *shape*: who wins, roughly by how much, and where optima sit.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .latency import PAPER_PERCENTILES
from .runner import RunResult, run_workload
from ..errors import ConfigError
from ..lsm.compaction.spec import PolicySpec, available_policies, get_spec
from ..lsm.config import LSMConfig
from ..ssd.flash import DeviceConfig, FlashSpec
from ..ssd.profile import ENTERPRISE_PCIE, SSDProfile, get_profile
from ..workload import spec as workloads
from ..workload.spec import WorkloadSpec
from ..workload.ycsb import Operation

DEFAULT_OPS = 60_000
DEFAULT_KEY_SPACE = 20_000

#: Scan length used by the SCN experiments.  The paper scans 100 records
#: (~100 KB) against 2 MB SSTables — 5% of a file.  Our simulation-scale
#: SSTables are 64 KB, so the equivalent scan is ~6 records (~6 KB, 9% of
#: a file); keeping the paper's literal 100 would make every scan span
#: multiple files per level, a geometry the paper's testbed never sees.
SCALED_SCAN_LENGTH = 6


#: How a grid names a policy: a registry name or a (derived) spec — both
#: pickle, which closures and policy instances do not.
_Policy = Union[str, PolicySpec]
#: One labelled grid point: the engine config (None = the defaults) and
#: the device a task runs under.
_Point = Tuple[Optional[LSMConfig], "SSDProfile | DeviceConfig"]
_DEFAULT_POINT: _Point = (None, ENTERPRISE_PCIE)

#: The paper's two contenders as ``(display label, registry name)``.
BOTH_POLICIES: Sequence[Tuple[str, _Policy]] = (("UDC", "udc"), ("LDC", "ldc"))


@dataclass
class ComparisonRow:
    """One (workload, policy) measurement used across the figures."""

    workload: str
    policy: str
    result: RunResult


@dataclass
class ExperimentOutput:
    """Generic experiment result: one row per grid task."""

    name: str
    rows: List[ComparisonRow] = field(default_factory=list)

    def result_for(self, workload: str, policy: str) -> RunResult:
        for row in self.rows:
            if row.workload == workload and row.policy == policy:
                return row.result
        raise KeyError(f"no row for ({workload!r}, {policy!r})")


# ----------------------------------------------------------------------
# The experiment grid: declarative points, serial or multi-process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridTask:
    """One independent (workload, policy, config, device) simulation.

    ``policy`` is a registry name or a :class:`PolicySpec`;
    ``policy_label`` is what result rows call it ("UDC", "LDC-fixed").
    ``preload`` / ``operations`` replace the spec's own streams (one
    shard's slice of a sharded run).  Every field must be picklable —
    tasks and their RunResults cross process boundaries when the grid
    runs with workers.
    """

    label: str
    spec: WorkloadSpec
    policy: _Policy
    config: Optional[LSMConfig] = None
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE
    timeline_bucket_us: float = 1_000_000.0
    policy_label: str = ""
    preload: Optional[Tuple[Operation, ...]] = None
    operations: Optional[Tuple[Operation, ...]] = None


def _run_grid_task(task: GridTask) -> RunResult:
    """Top-level worker entry point (must be importable for pickling)."""
    return run_workload(
        task.spec,
        task.policy,
        config=task.config,
        profile=task.profile,
        timeline_bucket_us=task.timeline_bucket_us,
        preload=task.preload,
        operations=task.operations,
    )


#: Process count used when ``run_grid`` is called without ``workers``.
#: ``None`` or 1 means serial in-process execution.
_default_workers: Optional[int] = None


def set_default_workers(workers: Optional[int]) -> None:
    """Set the grid-wide worker count (the CLI's ``--workers`` flag)."""
    global _default_workers
    if workers is not None and workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    _default_workers = workers


def default_workers() -> Optional[int]:
    """Current grid-wide worker count (None = serial)."""
    return _default_workers


def run_grid(
    tasks: Iterable[GridTask], workers: Optional[int] = None
) -> List[RunResult]:
    """Run every task and return results in task order.

    Serial when ``workers`` (or the module default) is None or 1;
    otherwise the tasks are fanned out over a ``ProcessPoolExecutor``.
    ``executor.map`` preserves input ordering, and each task simulates its
    own device and virtual clock, so the result list is identical —
    ordering and values — whatever the worker count.
    """
    task_list = list(tasks)
    if workers is None:
        workers = _default_workers
    if workers is None or workers <= 1 or len(task_list) <= 1:
        return [_run_grid_task(task) for task in task_list]
    with ProcessPoolExecutor(max_workers=min(workers, len(task_list))) as pool:
        return list(pool.map(_run_grid_task, task_list))


def _grid_output(name: str, tasks: Sequence[GridTask]) -> ExperimentOutput:
    """Run a grid and fold the results into labelled comparison rows."""
    results = run_grid(tasks)
    output = ExperimentOutput(name=name)
    for task, result in zip(tasks, results):
        output.rows.append(ComparisonRow(task.label, task.policy_label, result))
    return output


def sweep(
    specs: Sequence[WorkloadSpec],
    policies: Sequence[Tuple[str, _Policy]] = BOTH_POLICIES,
    points: Optional[Mapping[str, _Point]] = None,
    bucket_us: float = 1_000_000.0,
) -> List[GridTask]:
    """The ``points x specs x policies`` cross product every figure runs.

    ``points`` maps a row label to the ``(config, device)`` its tasks run
    under (default: one point, the stock config on the enterprise PCIe
    device); a task is labelled by its point, or by its workload's name
    when the point's label is empty.  ``policies`` pairs a display label
    with a registry name or :class:`PolicySpec`.
    """
    if points is None:
        points = {"": _DEFAULT_POINT}
    return [
        GridTask(label or spec_item.name, spec_item, policy, config, profile,
                 bucket_us, policy_label)
        for label, (config, profile) in points.items()
        for spec_item in specs
        for policy_label, policy in policies
    ]


def _config_points(prefix: str, knob: str, values: Iterable) -> Dict[str, _Point]:
    """One ``prefix=value`` point per value of a single ``LSMConfig`` knob."""
    return {
        f"{prefix}={value}": (LSMConfig(**{knob: value}), ENTERPRISE_PCIE)
        for value in values
    }


def paper_mix(name: str, ops: int, key_space: int, **overrides: object) -> WorkloadSpec:
    """The Table III workload ``name`` at the given size (typed error on a miss)."""
    if name not in workloads.TABLE_III:
        known = ", ".join(workloads.TABLE_III)
        raise ConfigError(f"unknown workload {name!r}; known: {known}")
    return workloads.TABLE_III[name](
        num_operations=ops, key_space=key_space, **overrides
    )


def _paper_mixes(
    names: Sequence[str], ops: int, key_space: int, **overrides: object
) -> List[WorkloadSpec]:
    return [paper_mix(name, ops, key_space, **overrides) for name in names]


# ----------------------------------------------------------------------
# Fig. 1 — latency fluctuation of the stock (UDC) store
# ----------------------------------------------------------------------
def fig01_latency_fluctuation(
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
    bucket_us: float = 500.0,
) -> Dict[str, object]:
    """Average latency per virtual-time bucket under a mixed workload.

    The paper mixes 10 M reads with 10 M writes on stock LevelDB and
    observes write-latency fluctuation up to 49.13x between buckets.  The
    paper buckets by wall-clock second; our virtual timescale is ~10^4x
    compressed (small files, few ops), so the default bucket is scaled
    down accordingly — what matters is that a bucket holds a handful of
    operations, the granularity at which compaction stalls are visible.
    """
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    result = run_workload(spec_item, "udc", timeline_bucket_us=bucket_us)
    return {
        "points": result.timeline.points(),
        "fluctuation_ratio": result.timeline.fluctuation_ratio(),
        "result": result,
    }


# ----------------------------------------------------------------------
# Fig. 1 (scheduled) — interference from true background compaction
# ----------------------------------------------------------------------
def fig01_scheduled_interference(
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
    bg_threads: int = 1,
    bucket_us: float = 500.0,
) -> Dict[str, object]:
    """UDC vs LDC latency spread with compaction truly in the background.

    The mechanism experiment behind the paper's Fig. 1 / Figs. 8–9 story:
    with the virtual-time scheduler on (``bg_threads`` background
    threads), compaction chunks share the device channel with foreground
    I/O instead of being charged inline to the triggering operation.
    UDC's upper-level-driven rounds capture large tasks that occupy the
    channel for long windows — writes landing behind them absorb the wait
    — while LDC's lower-level-driven link-and-merge steps produce small
    tasks and correspondingly small waits.  The headline derived metric
    is the write p99/p50 spread per policy; the acceptance claim is
    ``spread(UDC) > spread(LDC)`` *from mechanism*: scheduling, channel
    arbitration and L0 throttling, not per-operation accounting.
    """
    tasks = sweep(
        [workloads.rwb(num_operations=ops, key_space=key_space)],
        points={"": (LSMConfig(bg_threads=bg_threads), ENTERPRISE_PCIE)},
        bucket_us=bucket_us,
    )
    by_policy: Dict[str, RunResult] = {}
    spreads: Dict[str, float] = {}
    for task, result in zip(tasks, run_grid(tasks)):
        writes = result.write_latencies
        spreads[task.policy_label] = writes.percentile(99.0) / writes.percentile(50.0)
        by_policy[task.policy_label] = result
    return {
        "results": by_policy,
        "p99_p50_spread": spreads,
        "stall_time_us": {
            policy: result.stall_time_us for policy, result in by_policy.items()
        },
        "device_wait_us": {
            policy: result.device_wait_us for policy, result in by_policy.items()
        },
        "points": {
            policy: result.timeline.points()
            for policy, result in by_policy.items()
        },
        "bg_threads": bg_threads,
    }


# ----------------------------------------------------------------------
# Fig. 1 (open loop) — queueing-inflated tails and SLO violations
# ----------------------------------------------------------------------
def fig01_open_loop(
    ops: int = 12_000,
    key_space: int = 4_000,
    queue_depth: int = 128,
    slo_us: float = 1_000.0,
    arrival: str = "poisson",
    seed: int = 7,
    bg_threads: int = 0,
    load_fractions: Sequence[float] = (0.25, 0.4, 0.6, 1.0),
    headline_fraction: float = 0.6,
    knee_slo_rate: float = 0.05,
    num_tenants: int = 1,
) -> Dict[str, object]:
    """UDC vs LDC under open-loop load: the client's view of Fig. 1.

    The closed-loop experiments measure *service time*; a client of the
    store measures queue wait **plus** service.  This experiment drives
    both policies from the same deterministic arrival sequence at offered
    loads expressed as fractions of UDC's *closed-loop capacity* (its
    saturation throughput), and reports queue-inflated percentiles and
    SLO-violation rates per load.

    The mechanism: with inline compaction accounting (``bg_threads=0``,
    the stock-LevelDB setting of the paper's Fig. 1), UDC charges a whole
    upper-level-driven compaction round to the single write that
    triggered it — a multi-millisecond service spike.  Every request
    arriving during that spike queues behind it, so the spike is
    *multiplied* by the arrival rate into a burst of SLO violations.
    LDC's lower-level-driven link step is metadata-cheap and its merges
    are smaller, so its service spikes — and therefore its queueing
    bursts — are far shorter.  The headline claim, checked by
    ``benchmarks/claims.py``: at the headline load (above UDC's knee,
    the lowest tested load where UDC's violation rate exceeds
    ``knee_slo_rate``), UDC's queue-inflated p99.9 *and* SLO-violation
    rate are strictly worse than LDC's.
    """
    from ..serve import ServeSpec, serve_workload

    config = LSMConfig(bg_threads=bg_threads)
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)

    capacities: Dict[str, float] = {}
    for policy_name, policy in BOTH_POLICIES:
        closed = run_workload(spec_item, policy, config=config)
        capacities[policy_name] = closed.throughput_ops_s
    base_rate = capacities["UDC"]

    curves: Dict[str, List[Dict[str, float]]] = {"UDC": [], "LDC": []}
    for fraction in load_fractions:
        rate = base_rate * fraction
        for policy_name, policy in BOTH_POLICIES:
            serve_spec = ServeSpec(
                arrival=arrival,
                rate_ops_s=rate,
                num_tenants=num_tenants,
                queue_depth=queue_depth,
                slo_us=slo_us,
                seed=seed,
            )
            result = serve_workload(spec_item, policy, serve_spec, config=config)
            curves[policy_name].append(
                {
                    "load_fraction": fraction,
                    "offered_rate_ops_s": rate,
                    "throughput_ops_s": result.throughput_ops_s,
                    "mean_wait_us": result.mean_wait_us(),
                    "p50_us": result.total_latencies.percentile(50.0),
                    "p99_us": result.total_latencies.percentile(99.0),
                    "p999_us": result.total_latencies.percentile(99.9),
                    "slo_violation_rate": result.slo_violation_rate,
                    "rejection_rate": result.rejection_rate,
                    "rejected": float(result.rejected),
                }
            )

    knee_fraction: Optional[float] = None
    for row in curves["UDC"]:
        if row["slo_violation_rate"] > knee_slo_rate:
            knee_fraction = row["load_fraction"]
            break

    headline_index = min(
        range(len(load_fractions)),
        key=lambda i: abs(load_fractions[i] - headline_fraction),
    )
    udc_row = curves["UDC"][headline_index]
    ldc_row = curves["LDC"][headline_index]
    return {
        "curves": curves,
        "capacities": capacities,
        "base_rate_ops_s": base_rate,
        "load_fractions": tuple(load_fractions),
        "knee_fraction": knee_fraction,
        "headline": {
            "load_fraction": load_fractions[headline_index],
            "offered_rate_ops_s": udc_row["offered_rate_ops_s"],
            "above_knee": (
                knee_fraction is not None
                and load_fractions[headline_index] >= knee_fraction
            ),
            "udc_p999_us": udc_row["p999_us"],
            "ldc_p999_us": ldc_row["p999_us"],
            "udc_slo_violation_rate": udc_row["slo_violation_rate"],
            "ldc_slo_violation_rate": ldc_row["slo_violation_rate"],
            "udc_worse_p999": udc_row["p999_us"] > ldc_row["p999_us"],
            "udc_worse_slo": (
                udc_row["slo_violation_rate"] > ldc_row["slo_violation_rate"]
            ),
        },
        "slo_us": slo_us,
        "queue_depth": queue_depth,
        "arrival": arrival,
        "bg_threads": bg_threads,
    }


# ----------------------------------------------------------------------
# Table I — where the time goes (compaction dominates)
# ----------------------------------------------------------------------
def tab1_time_breakdown(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> Dict[str, float]:
    """Virtual-time share per engine activity under pure insertion.

    Paper (perf on LevelDB, 10 M inserts): DoCompactionWork 61.4%,
    file system 20.9%, DoWrite 8.04%, others 9.66%.  Our analogue maps
    compaction -> DoCompactionWork, flush+wal -> file system,
    write -> DoWrite.
    """
    spec_item = workloads.wo(num_operations=ops, key_space=key_space)
    share = run_workload(spec_item, "udc").activity_share
    return {
        "DoCompactionWork": share.get("compaction", 0.0),
        "file system": share.get("flush", 0.0) + share.get("wal", 0.0),
        "DoWrite": share.get("write", 0.0),
        "Others": share.get("read", 0.0) + share.get("scan", 0.0),
    }


# ----------------------------------------------------------------------
# Fig. 7 — tuning UDC's fan-out alone does not work
# ----------------------------------------------------------------------
def fig07_fanout_udc(
    fan_outs: Sequence[int] = (3, 5, 10, 25, 50, 100),
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
) -> ExperimentOutput:
    """UDC write amplification and throughput across fan-outs (RWB)."""
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    points = _config_points("fanout", "fan_out", fan_outs)
    return _grid_output("fig07", sweep([spec_item], [("UDC", "udc")], points))


# ----------------------------------------------------------------------
# Fig. 8 — tail latency percentiles, UDC vs LDC
# ----------------------------------------------------------------------
def fig08_tail_latency(
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
    percentiles: Sequence[float] = PAPER_PERCENTILES,
) -> Dict[str, Dict[float, float]]:
    """P90–P99.99 latencies for both policies on a 50/50 mix.

    Paper: P99.9 improves from 469.66 µs to 179.53 µs (2.62x) and P99.99
    from 2688.23 µs to 1305.96 µs.
    """
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    tasks = sweep([spec_item])
    return {
        task.policy_label: result.latencies.percentiles(percentiles)
        for task, result in zip(tasks, run_grid(tasks))
    }


# ----------------------------------------------------------------------
# Fig. 9 — average latency by workload
# ----------------------------------------------------------------------
def fig09_avg_latency(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> ExperimentOutput:
    """Average latency of WH / RWB / RH for both policies.

    Paper: LDC's average latency drops to 43.3% (WH) and 45.6% (RWB) of
    UDC's; RH is comparable.
    """
    specs = _paper_mixes(("WH", "RWB", "RH"), ops, key_space)
    return _grid_output("fig09", sweep(specs))


# ----------------------------------------------------------------------
# Fig. 10a/b — throughput; Fig. 10c — compaction I/O
# ----------------------------------------------------------------------
def fig10a_throughput_get(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> ExperimentOutput:
    """Total throughput for WO/WH/RWB/RH/RO (paper: +78.0/+73.7/+80.2/+16/~0%)."""
    specs = _paper_mixes(("WO", "WH", "RWB", "RH", "RO"), ops, key_space)
    return _grid_output("fig10a", sweep(specs))


def fig10b_throughput_scan(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> ExperimentOutput:
    """Throughput for SCN-WH/RWB/RH (paper: +86.2/+81.1/+49.1%)."""
    specs = _paper_mixes(
        ("SCN-WH", "SCN-RWB", "SCN-RH"),
        ops,
        key_space,
        scan_length=SCALED_SCAN_LENGTH,
    )
    return _grid_output("fig10b", sweep(specs))


def fig10c_compaction_io(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> ExperimentOutput:
    """Compaction read/write bytes per workload (paper: LDC ~halves both)."""
    specs = _paper_mixes(("WO", "WH", "RWB", "RH"), ops, key_space)
    specs.append(
        workloads.scn_rwb(
            num_operations=max(1, ops // 3),
            key_space=key_space,
            scan_length=SCALED_SCAN_LENGTH,
        )
    )
    return _grid_output("fig10c", sweep(specs))


# ----------------------------------------------------------------------
# Fig. 11 — uniform vs Zipf distributions
# ----------------------------------------------------------------------
def fig11_zipf(
    zipf_constants: Sequence[float] = (1.0, 2.0, 5.0),
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
) -> ExperimentOutput:
    """RWB throughput under uniform and Zipf key choice.

    Paper: both policies speed up as skew rises; LDC's edge grows from
    38.7% (uniform) to 67.3% (Zipf-5).
    """
    specs = [workloads.rwb(num_operations=ops, key_space=key_space)]
    for constant in zipf_constants:
        specs.append(
            workloads.rwb(
                num_operations=ops,
                key_space=key_space,
                distribution="zipf",
                zipf_constant=constant,
            ).with_overrides(name=f"Zipf{constant:g}")
        )
    return _grid_output("fig11", sweep(specs))


# ----------------------------------------------------------------------
# Fig. 12a/d — SliceLink threshold sweep
# ----------------------------------------------------------------------
def fig12ad_slicelink_threshold(
    thresholds: Sequence[int] = (2, 5, 10, 20, 40),
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
) -> ExperimentOutput:
    """LDC throughput and compaction I/O across T_s (paper optimum: fan-out)."""
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    ldc = get_spec("ldc")
    tasks: List[GridTask] = []
    for threshold in thresholds:
        policy = ("LDC", ldc.derive(threshold=threshold))
        tasks += sweep([spec_item], [policy], {f"T_s={threshold}": _DEFAULT_POINT})
    tasks += sweep([spec_item], [("UDC", "udc")], {"reference": _DEFAULT_POINT})
    return _grid_output("fig12ad", tasks)


# ----------------------------------------------------------------------
# Fig. 12b/e — fan-out sweep for both policies
# ----------------------------------------------------------------------
def fig12be_fanout_sweep(
    fan_outs: Sequence[int] = (3, 5, 10, 25, 50, 100),
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
) -> ExperimentOutput:
    """Throughput / compaction I/O vs fan-out (paper: LDC wins 8.8–187.9%,
    UDC optimum ~3, LDC optimum ~25).  LDC's T_s stays at 10 while the
    fan-out varies, rather than following it."""
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    points = _config_points("fanout", "fan_out", fan_outs)
    policies = (("UDC", "udc"), ("LDC", get_spec("ldc").derive(threshold=10)))
    return _grid_output("fig12be", sweep([spec_item], policies, points))


# ----------------------------------------------------------------------
# Fig. 12c/f — Bloom filter size sweep (RWB)
# ----------------------------------------------------------------------
def fig12cf_bloom_rwb(
    bits_per_key: Sequence[int] = (10, 50, 100, 200),
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
) -> ExperimentOutput:
    """RWB performance across Bloom sizes (paper: flat from 10 bits/key up)."""
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    points = _config_points("bits", "bloom_bits_per_key", bits_per_key)
    return _grid_output("fig12cf", sweep([spec_item], points=points))


# ----------------------------------------------------------------------
# Fig. 13 — Bloom filters under a read-only workload
# ----------------------------------------------------------------------
def fig13_bloom_ro(
    bits_per_key: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
) -> Dict[int, Dict[str, float]]:
    """Data-block reads and filter size vs bits/key on a read-only store.

    Paper: block reads stop improving past ~16 bits/key; a 2-MB SSTable's
    filter is ~11.3 KB at 8 bits/key, growing to 67.3 KB at 128.
    """
    spec_item = workloads.ro(num_operations=ops, key_space=key_space)
    points = _config_points("bits", "bloom_bits_per_key", bits_per_key)
    tasks = sweep([spec_item], [("LDC", "ldc")], points)
    out: Dict[int, Dict[str, float]] = {}
    for bits, task, result in zip(bits_per_key, tasks, run_grid(tasks)):
        out[bits] = {
            "block_reads": float(result.sstable_blocks_read),
            "bloom_skips": float(result.bloom_negative_skips),
            "reads": float(ops),
            "filter_bytes_per_table": _mean_filter_bytes(task.config, key_space),
        }
    return out


def _mean_filter_bytes(config: LSMConfig, key_space: int) -> float:
    """Expected Bloom size for one full SSTable under this config."""
    record_bytes = 16 + workloads.PAPER_VALUE_BYTES + 13
    keys_per_table = max(1, config.sstable_target_bytes // record_bytes)
    return keys_per_table * config.bloom_bits_per_key / 8.0


# ----------------------------------------------------------------------
# Fig. 14 — scalability in request count
# ----------------------------------------------------------------------
def fig14_scalability(
    request_counts: Sequence[int] = (20_000, 40_000, 80_000, 120_000),
    key_space_ratio: float = 0.33,
) -> ExperimentOutput:
    """RWB at growing request counts (paper: 5–30 M; LDC holds +39–65%
    throughput and -43–47% compaction I/O throughout)."""
    return _scaling("fig14", request_counts, key_space_ratio)


# ----------------------------------------------------------------------
# Fig. 15 — space efficiency
# ----------------------------------------------------------------------
def fig15_space(
    request_counts: Sequence[int] = (20_000, 40_000, 80_000, 120_000),
    key_space_ratio: float = 0.33,
) -> ExperimentOutput:
    """Final store size, UDC vs LDC (paper: LDC +3.37–10.0%, avg 6.78%).

    Our simulated trees are shallower than the paper's 10 GB store, so the
    frozen-region share is larger; the bench reports overhead alongside the
    bottom-level share to make the geometry dependence visible.
    """
    return _scaling("fig15", request_counts, key_space_ratio)


def _scaling(
    name: str, request_counts: Sequence[int], key_space_ratio: float
) -> ExperimentOutput:
    """The shared grid of Figs. 14/15: RWB at growing request counts."""
    tasks: List[GridTask] = []
    for count in request_counts:
        key_space = max(1000, int(count * key_space_ratio))
        spec_item = workloads.rwb(num_operations=count, key_space=key_space)
        tasks += sweep([spec_item], points={f"N={count}": _DEFAULT_POINT})
    return _grid_output(name, tasks)


# ----------------------------------------------------------------------
# Shard scaling (repro.shard — beyond the paper's single-store scope)
# ----------------------------------------------------------------------
def shard_scaling(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> Dict[int, Dict[str, float]]:
    """RWB across 1, 2, 4 and 8 hash-partitioned shards under UDC: how
    partitioning changes the work itself.

    Two effects stack as shards grow: per-shard trees are smaller (fewer
    levels, less compaction work — write amplification falls), and the
    shard tasks execute on independent workers (``--workers``; wall-clock
    parallelism, bounded by the host's cores).  Virtual-time metrics are
    deterministic and worker-count-independent; ``wall_s`` is the only
    host-dependent column.
    """
    # Local import: repro.shard.runner imports this module (for run_grid).
    from ..shard.runner import run_sharded_workload

    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    out: Dict[int, Dict[str, float]] = {}
    for count in (1, 2, 4, 8):
        report = run_sharded_workload(
            spec_item, "udc", num_shards=count, workers=_default_workers or 1
        )
        out[count] = {
            "throughput_ops_s": report.throughput_ops_s,
            "write_amplification": report.write_amplification,
            "compaction_mib": report.metrics.compaction_bytes_total / 2**20,
            "p999_us": report.latencies.percentile(99.9),
            "wall_s": report.wall_s,
        }
    return out


# ----------------------------------------------------------------------
# Paper scale — the fill + read pair at the paper's evaluation size
# ----------------------------------------------------------------------
#: Operations per phase of a full ``paper_scale`` run (10 M in total).
PAPER_SCALE_OPS = 5_000_000


def paper_scale(ops: int = PAPER_SCALE_OPS) -> Dict[str, float]:
    """``ops`` random inserts (WO), then ``ops`` point lookups (RO)
    against a preloaded store, under UDC: 10 M operations by default,
    the size of the paper's §IV runs and the run the ROADMAP's 500 s
    host-time target is stated in.

    Latency recording is strided (1 in 100, capped at 100k samples) so
    the run holds histograms, not 10 M floats.  Each phase reports wall
    and CPU (``time.process_time``) seconds beside its virtual-time
    results; everything but those four timings is deterministic.
    """
    keys = max(10_000, ops // 10)
    stride = 100
    out: Dict[str, float] = {"ops": 2 * ops, "latency_sample_stride": stride}
    phases = (
        ("fill", workloads.wo(num_operations=ops, key_space=keys)),
        (
            "read",
            workloads.ro(num_operations=ops, key_space=keys, preload_keys=keys),
        ),
    )
    for phase, spec_item in phases:
        wall, cpu = time.perf_counter(), time.process_time()
        result = run_workload(
            spec_item,
            "udc",
            sample_stride=stride,
            max_latency_samples=100_000,
        )
        out[f"{phase}_wall_s"] = time.perf_counter() - wall
        out[f"{phase}_cpu_s"] = time.process_time() - cpu
        out[f"{phase}_sim_throughput_ops_s"] = result.throughput_ops_s
        out[f"{phase}_p99_us"] = result.latencies.percentile(99.0)
        if phase == "fill":
            out["write_amplification"] = result.write_amplification
    out["wall_s"] = out["fill_wall_s"] + out["read_wall_s"]
    out["ops_per_sec"] = out["ops"] / out["wall_s"]
    return out


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures)
# ----------------------------------------------------------------------
def ablation_adaptive_threshold(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> ExperimentOutput:
    """Fixed vs self-adaptive T_s across read/write mixes (§III-B.4)."""
    ldc = get_spec("ldc")
    policies = (
        ("LDC-fixed", ldc.derive(adaptive=False)),
        ("LDC-adaptive", ldc.derive(adaptive=True)),
    )
    specs = _paper_mixes(("WH", "RWB", "RH"), ops, key_space)
    return _grid_output("ablation_adaptive", sweep(specs, policies))


def ablation_tiered_tail(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> ExperimentOutput:
    """Measure the lazy baselines' tail latency (excluded from the paper's
    Fig. 8 because lazy schemes 'introduce much larger tail latency').

    Covers both lazy flavours the paper names: size-tiered (Cassandra /
    RocksDB-universal style) and delayed batching (dCompaction style).
    """
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    policies = (*BOTH_POLICIES, ("Tiered", "tiered"), ("Delayed", "delayed"))
    return _grid_output("ablation_tiered", sweep([spec_item], policies))


def ablation_device_asymmetry(
    write_bandwidths: Sequence[float] = (100.0, 250.0, 1000.0, 2000.0),
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
) -> ExperimentOutput:
    """LDC's edge vs the device's read/write asymmetry (§I motivation).

    LDC trades reads for writes; on a symmetric device (write bandwidth ==
    read bandwidth) the trade buys less.
    """
    spec_item = workloads.rwb(num_operations=ops, key_space=key_space)
    points = {
        f"w_bw={bandwidth:g}MB/s": (
            None, ENTERPRISE_PCIE.scaled(write_bandwidth_mbps=bandwidth)
        )
        for bandwidth in write_bandwidths
    }
    return _grid_output("ablation_asymmetry", sweep([spec_item], points=points))


# ----------------------------------------------------------------------
# Device WA — host, device (FTL/GC) and end-to-end write amplification
# ----------------------------------------------------------------------
#: Capacity margin used when ``fig_device_wa`` sizes its flash device:
#: ``logical_bytes = margin x`` the flash-off probe's final store size.
#: The probe runs UDC, the *smallest*-footprint policy at steady state
#: (LDC holds frozen slices beside the tree, tiered holds overlapping
#: runs), so the margin must leave every policy enough free-page slack
#: that device WA reflects its write pattern rather than raw capacity
#: starvation.  2x starves LDC (its footprint is ~1.7x UDC's here) and
#: inverts the paper's ordering; 2.5x restores it; 3x holds it with
#: comfortable headroom while still exercising GC relocation.
DEVICE_WA_SIZE_MARGIN = 3.0


def sized_flash_spec(
    spec: WorkloadSpec,
    policy: _Policy = "udc",
    config: Optional[LSMConfig] = None,
    over_provisioning: float = 0.07,
    gc_policy: str = "greedy",
    logical_mib: Optional[float] = None,
    size_margin: float = DEVICE_WA_SIZE_MARGIN,
) -> FlashSpec:
    """The flash geometry a workload is run over (at least 1 MiB logical).

    An explicit ``logical_mib`` wins; otherwise the workload is probed
    flash-off under ``policy`` and the logical capacity is ``size_margin
    x`` the probe's final store size, so GC pressure reflects a policy's
    write pattern rather than capacity starvation.
    """
    if logical_mib is None:
        probe = run_workload(spec, policy, config=config)
        logical_bytes = int(probe.space_bytes * size_margin)
    else:
        logical_bytes = int(logical_mib * 2**20)
    return FlashSpec(
        logical_bytes=max(logical_bytes, 1 << 20),
        over_provisioning=over_provisioning,
        gc_policy=gc_policy,
    )


def fig_device_wa(
    ops: int = DEFAULT_OPS, key_space: int = DEFAULT_KEY_SPACE
) -> Dict[str, object]:
    """End-to-end write amplification per policy over the flash device.

    The paper's lifetime argument (§I, §IV-F) is about *total* writes the
    flash medium absorbs: host WA (engine writes / user writes) times
    device WA (pages the FTL programs / host writes, GC relocation
    included).  This experiment is the explorer's sweep on RWB with flash
    mounted:

    1. probe RWB flash-off under UDC to learn the store's steady-state
       footprint, and size a :class:`~repro.ssd.flash.FlashSpec` at
       :data:`DEVICE_WA_SIZE_MARGIN` x that footprint with 7%
       over-provisioning and greedy GC (:func:`sized_flash_spec`);
    2. run every registered policy on that *same* device spec, so the
       only variable is the compaction policy's write pattern.

    Returns the :func:`design_space` report, whose results carry host /
    device / total WA and the GC and wear counters.  The claim
    (``benchmarks/claims.py``) mirrors the paper: LDC's total WA beats
    UDC's, because its host-WA saving (fewer compaction rewrites)
    dominates the extra GC pressure from its frozen-region footprint.
    """
    flash = sized_flash_spec(paper_mix("RWB", ops, key_space))
    return design_space(mixes=("RWB",), ops=ops, key_space=key_space, flash=flash)


# ----------------------------------------------------------------------
# Design-space explorer (`repro explore`) — spec x workload x device
# ----------------------------------------------------------------------
#: Default grid swept by ``repro explore``: every registered policy over
#: the paper's central mixes on the enterprise PCIe device.
DESIGN_SPACE_MIXES: Tuple[str, ...] = ("WO", "RWB", "RH")
DESIGN_SPACE_PROFILES: Tuple[str, ...] = ("enterprise-pcie",)

#: The explorer's numeric columns — ``(name, decimals shown, header)``,
#: each read off a cell's result by :func:`_design_value` — and winner
#: criteria — ``(name, min | max, header)``; the trailing device/total WA
#: entries apply only with flash mounted.
_DESIGN_COLUMNS = (
    ("throughput_ops_s", 0, "ops/s"),
    ("p99_us", 1, "p99 us"),
    ("write_amplification", 2, "WA"),
    ("read_amplification", 2, "RA"),
    ("compaction_mib", 2, "compact MiB"),
    ("space_mib", 2, "space MiB"),
    ("device_write_amplification", 3, "dev WA"),
    ("total_write_amplification", 2, "total WA"),
)
_DESIGN_WINNERS = (
    ("write_amplification", min, "lowest WA"),
    ("read_amplification", min, "lowest RA"),
    ("p99_us", min, "lowest p99"),
    ("throughput_ops_s", max, "highest ops/s"),
    ("total_write_amplification", min, "lowest total WA"),
)


def read_amplification(result: RunResult) -> float:
    """Device bytes read per user-requested byte (reads + scans).

    Mirrors ``RunResult.write_amplification``: total device read traffic
    (user reads, compaction reads, WAL recovery, ...) over the bytes the
    user actually asked for.  Zero when the workload never read.
    """
    counters = result.metrics.counters if result.metrics is not None else {}
    user = counters.get("device.read.user_read.bytes", 0) + counters.get(
        "device.read.user_scan.bytes", 0
    )
    if user <= 0:
        return 0.0
    return result.total_read_bytes / user


def _design_value(result: RunResult, name: str) -> float:
    """The explorer's ``name`` column of one cell: p99, read amplification
    and the MiB columns are derived, every other name is the result's own
    field."""
    if name == "p99_us":
        return result.latencies.percentile(99.0)
    if name == "read_amplification":
        return read_amplification(result)
    if name == "compaction_mib":
        return result.compaction_bytes_total / 2**20
    if name == "space_mib":
        return result.space_bytes / 2**20
    return getattr(result, name)


def design_space(
    policies: Optional[Sequence[object]] = None,
    mixes: Sequence[str] = DESIGN_SPACE_MIXES,
    profiles: Sequence[str] = DESIGN_SPACE_PROFILES,
    ops: int = DEFAULT_OPS,
    key_space: int = DEFAULT_KEY_SPACE,
    config: Optional[LSMConfig] = None,
    flash: Optional[FlashSpec] = None,
) -> Dict[str, object]:
    """Sweep policy spec x workload mix x device profile through the grid.

    ``policies`` may mix registered names and :class:`PolicySpec`
    instances; the default sweeps every policy in the registry.  Each
    cell is one independent :class:`GridTask` (so ``--workers`` fans the
    sweep out bit-identically).  Returns the comparison report behind
    ``repro explore``: one ``(task, result)`` pair per cell plus the
    per-(workload, device) winners on WA / RA / p99 / throughput.

    Passing ``flash`` mounts the same :class:`~repro.ssd.flash.FlashSpec`
    under every profile in the sweep; the points gain live device/total
    WA columns and the winner table a ``total_wa`` row.
    """
    policy_specs = [
        item if isinstance(item, PolicySpec) else get_spec(str(item))
        for item in (available_policies() if policies is None else policies)
    ]
    points_by_profile: Dict[str, _Point] = {}
    for profile_name in profiles:
        device: "SSDProfile | DeviceConfig" = get_profile(profile_name)
        if flash is not None:
            device = DeviceConfig(profile=device, flash=flash)
        points_by_profile[profile_name] = (config, device)
    tasks = sweep(
        _paper_mixes(mixes, ops, key_space),
        [(pspec.name, pspec) for pspec in policy_specs],
        points_by_profile,
    )
    points = list(zip(tasks, run_grid(tasks)))
    criteria = _DESIGN_WINNERS if flash is not None else _DESIGN_WINNERS[:-1]
    winners: Dict[str, Dict[str, str]] = {}
    for cell_key in sorted({(t.spec.name, t.profile.name) for t, _ in points}):
        cell = [p for p in points if (p[0].spec.name, p[0].profile.name) == cell_key]
        winners["@".join(cell_key)] = {
            name: pick(cell, key=lambda p: _design_value(p[1], name))[0].policy_label
            for name, pick, _ in criteria
        }
    return {"points": points, "winners": winners, "flash": flash}


def design_tables(report: Dict[str, object]) -> Tuple[tuple, tuple]:
    """A ``design_space`` report as two ``(headers, rows)`` tables: one row
    per grid cell, one per (workload, device) winner.  Numeric cells are
    rounded to the precision shown; the device/total WA columns exist only
    when the sweep ran with flash mounted."""
    flash = report["flash"] is not None
    columns = _DESIGN_COLUMNS if flash else _DESIGN_COLUMNS[:-2]
    criteria = _DESIGN_WINNERS if flash else _DESIGN_WINNERS[:-1]
    points = [
        (task.policy_label, task.spec.name, task.profile.name)
        + tuple(round(_design_value(result, name), digits or None)
                for name, digits, _ in columns)
        for task, result in report["points"]  # type: ignore[attr-defined]
    ]
    winners = [
        (cell,) + tuple(best[name] for name, _, _ in criteria)
        for cell, best in report["winners"].items()  # type: ignore[attr-defined]
    ]
    return (
        (("policy", "workload", "device") + tuple(h for _, _, h in columns), points),
        (("cell",) + tuple(header for _, _, header in criteria), winners),
    )
