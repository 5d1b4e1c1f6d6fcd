"""Wall-clock benchmark suite behind ``repro bench``.

Everything else in the harness measures *virtual* time — the simulated
device clock that the paper's figures are drawn in.  This module measures
the opposite axis: how fast the simulator itself runs on the host, in real
seconds.  That number bounds how large a reproduction we can afford (the
paper's evaluation is 10-30 M requests; ROADMAP: "as fast as the hardware
allows"), so it is tracked as a first-class artifact: every invocation
writes a ``BENCH_<name>.json`` snapshot that later PRs diff against.

The suite has two tiers:

* **micro** — isolated hot paths (Bloom probes, k-way merge throughput,
  memtable fill), catching regressions in one subsystem before they blur
  into end-to-end noise;
* **macro** — whole-engine runs through :func:`~repro.harness.runner.
  run_workload` (fillrandom, readrandom, and a UDC-vs-LDC comparison run),
  the numbers that decide how big the figure benchmarks may be.

``--quick`` shrinks every benchmark ~10x for CI smoke runs: the JSON is
still schema-complete, only the operation counts (and hence the noise
floor) differ.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .runner import run_workload
from ..core.ldc import LDCPolicy
from ..errors import UnknownBenchmarkError
from ..lsm.bloom import BloomFilter
from ..lsm.compaction.leveled import LeveledCompaction
from ..lsm.config import LSMConfig
from ..lsm.iterators import merge_records
from ..lsm.memtable import MemTable
from ..lsm.record import KVRecord
from ..shard.runner import run_sharded_workload
from ..workload import spec as workloads

#: Schema tag written into every BENCH_*.json (bump on breaking changes).
BENCH_SCHEMA = "repro-bench/v1"


@dataclass
class BenchResult:
    """One benchmark's wall-clock measurement."""

    name: str
    ops: int
    wall_s: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.ops / self.wall_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "ops": self.ops,
            "wall_s": round(self.wall_s, 6),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "extra": {key: round(value, 6) for key, value in self.extra.items()},
        }


def _keys(count: int, width: int = 16) -> List[bytes]:
    return [str(index).zfill(width).encode("ascii") for index in range(count)]


# ----------------------------------------------------------------------
# Micro benchmarks
# ----------------------------------------------------------------------
def bench_bloom_probe(quick: bool = False) -> BenchResult:
    """Bloom filter probes: half present keys, half definite misses."""
    nkeys = 2_000 if quick else 10_000
    nprobes = 20_000 if quick else 200_000
    members = _keys(nkeys)
    absent = _keys(nkeys, width=16)
    absent = [b"x" + key[1:] for key in absent]  # same length, disjoint
    bloom = BloomFilter(members, bits_per_key=10)
    probes = [
        members[index % nkeys] if index % 2 == 0 else absent[index % nkeys]
        for index in range(nprobes)
    ]
    may_contain = bloom.may_contain
    start = time.perf_counter()
    hits = 0
    for key in probes:
        if may_contain(key):
            hits += 1
    wall = time.perf_counter() - start
    return BenchResult(
        "bloom_probe", nprobes, wall, extra={"positive_fraction": hits / nprobes}
    )


def bench_bloom_build(quick: bool = False) -> BenchResult:
    """Bloom filter construction throughput (keys inserted per second)."""
    nkeys = 2_000 if quick else 20_000
    rounds = 3 if quick else 10
    members = _keys(nkeys)
    start = time.perf_counter()
    for _ in range(rounds):
        BloomFilter(members, bits_per_key=10)
    wall = time.perf_counter() - start
    return BenchResult("bloom_build", nkeys * rounds, wall)


def bench_merge_throughput(quick: bool = False) -> BenchResult:
    """K-way merge of overlapping sorted runs (records merged per second)."""
    nstreams = 8
    per_stream = 2_000 if quick else 20_000
    streams: List[List[KVRecord]] = []
    seq = 0
    for stream in range(nstreams):
        records = []
        for index in range(per_stream):
            seq += 1
            key = str(index * nstreams + stream).zfill(16).encode("ascii")
            records.append(KVRecord(key, seq, 1, b"v" * 100))
        streams.append(records)
    start = time.perf_counter()
    merged = sum(1 for _ in merge_records([iter(s) for s in streams]))
    wall = time.perf_counter() - start
    return BenchResult(
        "merge_throughput", nstreams * per_stream, wall, extra={"merged": merged}
    )


def bench_memtable_fill(quick: bool = False) -> BenchResult:
    """Memtable (hash index, keys sorted lazily) inserts of shuffled keys per second."""
    count = 5_000 if quick else 50_000
    import random

    order = list(range(count))
    random.Random(7).shuffle(order)
    records = [
        KVRecord(str(index).zfill(16).encode("ascii"), index + 1, 1, b"v" * 64)
        for index in order
    ]
    table = MemTable()
    add = table.add
    start = time.perf_counter()
    for record in records:
        add(record)
    wall = time.perf_counter() - start
    return BenchResult("memtable_fill", count, wall, extra={"records": len(table)})


# ----------------------------------------------------------------------
# Macro benchmarks (whole engine, wall-clock around run_workload)
# ----------------------------------------------------------------------
def _macro_spec(name: str, ops: int, keys: int, **overrides: object):
    factory = workloads.TABLE_III[name]
    return factory(num_operations=ops, key_space=keys, **overrides)


def bench_fillrandom(quick: bool = False) -> BenchResult:
    """Pure random insertion through the full engine (UDC policy)."""
    ops = 3_000 if quick else 30_000
    keys = max(500, ops // 3)
    spec = _macro_spec("WO", ops, keys)
    start = time.perf_counter()
    result = run_workload(spec, LeveledCompaction, config=LSMConfig())
    wall = time.perf_counter() - start
    return BenchResult(
        "fillrandom",
        ops,
        wall,
        extra={
            "sim_throughput_ops_s": result.throughput_ops_s,
            "write_amplification": result.write_amplification,
        },
    )


def bench_readrandom(quick: bool = False) -> BenchResult:
    """Random point lookups against a preloaded store (UDC policy).

    Runs with the LevelDB-equivalent block cache enabled (256 KB at our
    64 KB file scale — see ``LSMConfig.block_cache_bytes``) so the
    ``block_cache_hit_rate`` extra reflects a realistic read path; the
    cache was off in BENCH_pr7.json and earlier baselines, so this
    benchmark's trajectory has a config step at pr8.
    """
    ops = 3_000 if quick else 30_000
    keys = max(500, ops // 3)
    spec = _macro_spec("RO", ops, keys, preload_keys=keys)
    start = time.perf_counter()
    result = run_workload(
        spec, LeveledCompaction, config=LSMConfig(block_cache_bytes=256 * 1024)
    )
    wall = time.perf_counter() - start
    hits = result.metrics.get("cache.hits") if result.metrics else 0
    misses = result.metrics.get("cache.misses") if result.metrics else 0
    probes = hits + misses
    return BenchResult(
        "readrandom",
        ops,
        wall,
        extra={
            "sim_throughput_ops_s": result.throughput_ops_s,
            "block_cache_hit_rate": hits / probes if probes else 0.0,
        },
    )


def bench_udc_vs_ldc(quick: bool = False) -> BenchResult:
    """End-to-end RWB comparison run, both policies back to back.

    This is the figure benchmarks' inner loop; its wall-clock cost decides
    how large every reproduction sweep may be.
    """
    ops = 2_000 if quick else 20_000
    keys = max(500, ops // 3)
    spec = _macro_spec("RWB", ops, keys)
    start = time.perf_counter()
    udc = run_workload(spec, LeveledCompaction, config=LSMConfig())
    udc_wall = time.perf_counter() - start
    mid = time.perf_counter()
    ldc = run_workload(spec, LDCPolicy, config=LSMConfig())
    ldc_wall = time.perf_counter() - mid
    wall = udc_wall + ldc_wall
    return BenchResult(
        "udc_vs_ldc",
        2 * ops,
        wall,
        extra={
            "udc_wall_s": udc_wall,
            "ldc_wall_s": ldc_wall,
            "udc_sim_throughput_ops_s": udc.throughput_ops_s,
            "ldc_sim_throughput_ops_s": ldc.throughput_ops_s,
        },
    )


def bench_sched_interference(quick: bool = False) -> BenchResult:
    """The udc_vs_ldc pair with the background scheduler on (bg_threads=1).

    Scheduler-on runs pay extra host work per operation (chunk capture,
    channel arbitration, throttle checks), and the fig01s experiment plus
    the differential suite are built on this path — so its wall-clock
    cost is tracked separately from the scheduler-off macro pair.  The
    extras record the headline mechanism result (write p99/p50 spread per
    policy) so a bench artifact also documents the interference gap.
    """
    ops = 2_000 if quick else 12_000
    keys = max(500, ops // 3)
    spec = _macro_spec("RWB", ops, keys)
    config = LSMConfig(bg_threads=1)
    start = time.perf_counter()
    udc = run_workload(spec, LeveledCompaction, config=config)
    udc_wall = time.perf_counter() - start
    mid = time.perf_counter()
    ldc = run_workload(spec, LDCPolicy, config=config)
    ldc_wall = time.perf_counter() - mid

    def spread(result) -> float:
        writes = result.write_latencies
        return writes.percentile(99.0) / writes.percentile(50.0)

    return BenchResult(
        "sched_interference",
        2 * ops,
        udc_wall + ldc_wall,
        extra={
            "udc_wall_s": udc_wall,
            "ldc_wall_s": ldc_wall,
            "udc_p99_p50_spread": spread(udc),
            "ldc_p99_p50_spread": spread(ldc),
            "udc_stall_time_us": udc.stall_time_us,
            "ldc_stall_time_us": ldc.stall_time_us,
        },
    )


# ----------------------------------------------------------------------
# Sharded benchmarks (repro.shard over the same macro workloads)
# ----------------------------------------------------------------------
def _sharded_pair_wall(
    ops: int, keys: int, num_shards: int, workers: int
) -> Dict[str, object]:
    """Run the fillrandom+readrandom macro pair sharded; return timings.

    The pair is the scaling unit: a write-heavy leg (compaction-bound)
    and a read-heavy leg against a preloaded store (lookup-bound), the
    two costs sharding attacks — smaller trees compact less and probe
    fewer levels.
    """
    fill_spec = _macro_spec("WO", ops, keys)
    read_spec = _macro_spec("RO", ops, keys, preload_keys=keys)
    start = time.perf_counter()
    fill = run_sharded_workload(
        fill_spec, LeveledCompaction, num_shards, workers=workers,
        config=LSMConfig(),
    )
    read = run_sharded_workload(
        read_spec, LeveledCompaction, num_shards, workers=workers,
        config=LSMConfig(),
    )
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "fill": fill,
        "read": read,
        "write_amplification": fill.write_amplification,
    }


def bench_sharded_fillrandom(quick: bool = False) -> BenchResult:
    """Random insertion through a 4-shard engine (hash partitioning).

    Directly comparable to ``fillrandom``: same spec, same policy, the
    trace split over four quarter-size trees.  The interesting extras are
    the write amplification (lower than the single store's — fewer levels
    per shard) and the per-shard operation balance.
    """
    ops = 3_000 if quick else 30_000
    keys = max(500, ops // 3)
    spec = _macro_spec("WO", ops, keys)
    start = time.perf_counter()
    report = run_sharded_workload(
        spec, LeveledCompaction, num_shards=4, workers=1, config=LSMConfig()
    )
    wall = time.perf_counter() - start
    balance = min(report.shard_operations) / max(1, max(report.shard_operations))
    return BenchResult(
        "sharded_fillrandom",
        ops,
        wall,
        extra={
            "sim_throughput_ops_s": report.throughput_ops_s,
            "write_amplification": report.write_amplification,
            "shard_balance": balance,
        },
    )


def bench_shard_scaling(quick: bool = False) -> BenchResult:
    """The shard-scaling curve on the fillrandom+readrandom macro pair.

    Three points: 1 shard (the PR 2 baseline), 4 shards executed serially
    (isolates the work reduction from smaller per-shard trees), and
    4 shards on 4 worker processes (adds host parallelism).  The serial
    and parallel sharded runs are asserted byte-identical in their
    aggregated metrics (``serial_parallel_identical``); ``cpu_count`` is
    recorded because the parallel point's wall-clock gain is bounded by
    ``min(workers, physical cores)`` — on a single-core host the curve
    shows the pure work-reduction term only.
    """
    ops = 3_000 if quick else 30_000
    keys = max(500, ops // 3)
    single = _sharded_pair_wall(ops, keys, num_shards=1, workers=1)
    serial = _sharded_pair_wall(ops, keys, num_shards=4, workers=1)
    parallel = _sharded_pair_wall(ops, keys, num_shards=4, workers=4)
    identical = (
        serial["fill"].fingerprint() == parallel["fill"].fingerprint()
        and serial["read"].fingerprint() == parallel["read"].fingerprint()
    )
    single_wall = single["wall_s"]
    return BenchResult(
        "shard_scaling",
        2 * ops,
        parallel["wall_s"],
        extra={
            "wall_1shard_s": single_wall,
            "wall_4shard_serial_s": serial["wall_s"],
            "wall_4shard_parallel_s": parallel["wall_s"],
            "speedup_4shard_serial": single_wall / serial["wall_s"],
            "speedup_4shard_parallel": single_wall / parallel["wall_s"],
            "serial_parallel_identical": 1.0 if identical else 0.0,
            "cpu_count": float(os.cpu_count() or 1),
            "write_amplification_1shard": single["write_amplification"],
            "write_amplification_4shard": serial["write_amplification"],
        },
    )


def bench_serve_tail(quick: bool = False) -> BenchResult:
    """The open-loop serving pair: queueing-inflated tails per policy.

    Drives UDC and LDC through :func:`~repro.serve.server.serve_workload`
    at the fig01_open_loop headline operating point (Poisson arrivals at
    60% of UDC's approximate closed-loop capacity, inline compaction,
    bounded queue).  The extras record the headline mechanism result —
    queue-inflated p99.9 and SLO-violation rate per policy — which the
    perf-smoke validation asserts (UDC strictly worse on both), so every
    bench artifact documents the serving-layer claim alongside its
    wall-clock cost.
    """
    from ..serve import ServeSpec, serve_workload

    ops = 2_000 if quick else 12_000
    keys = max(500, ops // 3)
    spec = _macro_spec("RWB", ops, keys)
    config = LSMConfig()
    serve_spec = ServeSpec(
        arrival="poisson",
        rate_ops_s=15_000.0,
        queue_depth=128,
        slo_us=1_000.0,
        seed=7,
    )
    start = time.perf_counter()
    udc = serve_workload(spec, LeveledCompaction, serve_spec, config=config)
    udc_wall = time.perf_counter() - start
    mid = time.perf_counter()
    ldc = serve_workload(spec, LDCPolicy, serve_spec, config=config)
    ldc_wall = time.perf_counter() - mid
    return BenchResult(
        "serve_tail",
        2 * ops,
        udc_wall + ldc_wall,
        extra={
            "udc_wall_s": udc_wall,
            "ldc_wall_s": ldc_wall,
            "udc_p999_us": udc.total_latencies.percentile(99.9),
            "ldc_p999_us": ldc.total_latencies.percentile(99.9),
            "udc_slo_violation_rate": udc.slo_violation_rate,
            "ldc_slo_violation_rate": ldc.slo_violation_rate,
            "udc_mean_wait_us": udc.mean_wait_us(),
            "ldc_mean_wait_us": ldc.mean_wait_us(),
        },
    )


# ----------------------------------------------------------------------
# Tier-2 benchmarks (paper scale; run only when named explicitly)
# ----------------------------------------------------------------------
def bench_paper_scale(quick: bool = False) -> BenchResult:
    """The macro pair at the paper's evaluation scale: 10M operations.

    5M random inserts (WO) followed by 5M point lookups (RO) against a
    preloaded store — the workload sizes of the paper's §IV runs that
    ROADMAP targets.  Latency recording is strided (1 in 100, capped) so
    the run holds histograms, not 10M floats; percentiles then come from
    the streaming histogram (see ``LatencyRecorder``).

    Tier 2: excluded from the default suite, run via
    ``repro bench --only paper_scale`` (the workflow_dispatch
    ``paper-scale`` CI job does exactly that).  The environment knob
    ``REPRO_PAPER_SCALE_OPS`` overrides the per-phase operation count —
    the weekly ``paper-scale-smoke`` CI job sets it to 500k (1M total
    ops) so the schema-complete run fits a small wall-time budget.
    """
    ops = 100_000 if quick else 5_000_000
    ops_override = os.environ.get("REPRO_PAPER_SCALE_OPS")
    if ops_override:
        ops = max(1, int(ops_override))
    keys = max(10_000, ops // 10)
    stride = 100
    cap = 100_000
    fill_spec = _macro_spec("WO", ops, keys)
    start = time.perf_counter()
    fill = run_workload(
        fill_spec,
        LeveledCompaction,
        config=LSMConfig(),
        sample_stride=stride,
        max_latency_samples=cap,
    )
    fill_wall = time.perf_counter() - start
    read_spec = _macro_spec("RO", ops, keys, preload_keys=keys)
    mid = time.perf_counter()
    read = run_workload(
        read_spec,
        LeveledCompaction,
        config=LSMConfig(),
        sample_stride=stride,
        max_latency_samples=cap,
    )
    read_wall = time.perf_counter() - mid
    return BenchResult(
        "paper_scale",
        2 * ops,
        fill_wall + read_wall,
        extra={
            "fill_wall_s": fill_wall,
            "read_wall_s": read_wall,
            "fill_sim_throughput_ops_s": fill.throughput_ops_s,
            "read_sim_throughput_ops_s": read.throughput_ops_s,
            "fill_p99_us": fill.latencies.percentile(99.0),
            "read_p99_us": read.latencies.percentile(99.0),
            "write_amplification": fill.write_amplification,
            "latency_sample_stride": float(stride),
        },
    )


#: The fixed suite, in execution order.
BENCHMARKS: Dict[str, Callable[[bool], BenchResult]] = {
    "bloom_probe": bench_bloom_probe,
    "bloom_build": bench_bloom_build,
    "merge_throughput": bench_merge_throughput,
    "memtable_fill": bench_memtable_fill,
    "fillrandom": bench_fillrandom,
    "readrandom": bench_readrandom,
    "udc_vs_ldc": bench_udc_vs_ldc,
    "sched_interference": bench_sched_interference,
    "sharded_fillrandom": bench_sharded_fillrandom,
    "shard_scaling": bench_shard_scaling,
    "serve_tail": bench_serve_tail,
}

#: Paper-scale runs; named explicitly (``--only``), never in the default
#: suite — a full run is minutes, not seconds.
TIER2_BENCHMARKS: Dict[str, Callable[[bool], BenchResult]] = {
    "paper_scale": bench_paper_scale,
}


def run_bench(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    profile_dir: Optional[str] = None,
) -> List[BenchResult]:
    """Run the requested benchmarks (default: the whole suite), in order.

    With ``profile_dir`` set, each benchmark runs under :mod:`cProfile`
    and its stats are dumped to ``<profile_dir>/PROFILE_<name>.pstats``
    (load with ``pstats.Stats`` to sort/inspect).  Profiling inflates
    wall times several-fold, so profiled numbers are for finding hot
    spots, never for the before/after tables.
    """
    runnable = {**BENCHMARKS, **TIER2_BENCHMARKS}
    selected = list(BENCHMARKS) if names is None else list(names)
    unknown = [name for name in selected if name not in runnable]
    if unknown:
        raise UnknownBenchmarkError(unknown, tuple(runnable))
    results = []
    for name in selected:
        if progress is not None:
            progress(name)
        if profile_dir is not None:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                results.append(runnable[name](quick))
            finally:
                profiler.disable()
            profiler.dump_stats(
                os.path.join(profile_dir, f"PROFILE_{name}.pstats")
            )
        else:
            results.append(runnable[name](quick))
    return results


def bench_report(
    results: Sequence[BenchResult], name: str, quick: bool
) -> Dict[str, object]:
    """Assemble the JSON document written to ``BENCH_<name>.json``."""
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "quick": quick,
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "benchmarks": {result.name: result.to_dict() for result in results},
    }


def write_bench_report(report: Dict[str, object], out_dir: str = ".") -> str:
    """Write the report as ``<out_dir>/BENCH_<name>.json``; return the path."""
    path = os.path.join(out_dir, f"BENCH_{report['name']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


#: Filename pattern of the committed per-PR baselines.
_HISTORY_PATTERN = r"^BENCH_pr(\d+)\.json$"


def load_bench_history(directory: str = ".") -> "List[tuple]":
    """Load every committed ``BENCH_pr<N>.json``, ordered by PR number.

    Returns ``(pr_number, report_dict)`` pairs.  Reports that fail to
    parse are skipped (a truncated artifact must not take down the
    history view for the rest).
    """
    import re

    pattern = re.compile(_HISTORY_PATTERN)
    entries = []
    for filename in os.listdir(directory):
        match = pattern.match(filename)
        if not match:
            continue
        try:
            with open(
                os.path.join(directory, filename), encoding="utf-8"
            ) as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        entries.append((int(match.group(1)), report))
    entries.sort(key=lambda entry: entry[0])
    return entries


def history_table(entries: "List[tuple]") -> str:
    """Markdown perf-trajectory table over the committed baselines.

    One row per report (PR order), one column per benchmark carrying its
    ``ops_per_sec`` (wall-clock ops/s of the *host*, the number the
    ``--compare`` gate diffs); benchmarks absent from a report show
    ``—`` (suites grew over time).  The final column tracks the macro
    ``fillrandom`` speedup relative to the first report that has it.
    """
    names: List[str] = []
    for _, report in entries:
        for bench_name in report.get("benchmarks", {}):
            if bench_name not in names:
                names.append(bench_name)
    lines = [
        "| report | " + " | ".join(names) + " | fillrandom vs first |",
        "|---" * (len(names) + 2) + "|",
    ]
    fill_base: Optional[float] = None
    for number, report in entries:
        benches = report.get("benchmarks", {})
        cells = []
        for bench_name in names:
            data = benches.get(bench_name)
            rate = data.get("ops_per_sec") if data else None
            cells.append(f"{rate:,.0f}" if rate else "—")
        fill = benches.get("fillrandom", {}).get("ops_per_sec")
        if fill and fill_base is None:
            fill_base = fill
        trajectory = f"{fill / fill_base:.2f}x" if fill and fill_base else "—"
        lines.append(
            f"| pr{number} | " + " | ".join(cells) + f" | {trajectory} |"
        )
    return "\n".join(lines)


def compare_reports(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, float]:
    """Per-benchmark speedup factors (after ops/sec over before ops/sec)."""
    out: Dict[str, float] = {}
    before_benches = before.get("benchmarks", {})
    after_benches = after.get("benchmarks", {})
    for bench_name, data in after_benches.items():  # type: ignore[union-attr]
        base = before_benches.get(bench_name)  # type: ignore[union-attr]
        if not base or not base.get("ops_per_sec"):
            continue
        out[bench_name] = data["ops_per_sec"] / base["ops_per_sec"]
    return out


def diff_reports(
    before: Dict[str, object],
    after: Dict[str, object],
    threshold: float = 0.9,
) -> Dict[str, object]:
    """Regression-gating diff of two ``repro-bench/v1`` reports.

    A benchmark *regresses* when its speedup factor (after over before)
    falls below ``threshold`` — e.g. 0.9 tolerates 10% slowdown, which is
    roughly the noise floor of the quick CI suite.  Benchmarks present
    only in ``before`` are reported as ``missing`` (a silently dropped
    benchmark must fail the gate too); benchmarks only in ``after`` are
    ``added`` and never gate.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    for label, report in (("before", before), ("after", after)):
        if report.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"{label} report has schema {report.get('schema')!r}, "
                f"expected {BENCH_SCHEMA!r}"
            )
    speedups = compare_reports(before, after)
    before_benches = before.get("benchmarks", {})
    after_benches = after.get("benchmarks", {})
    return {
        "threshold": threshold,
        "speedups": speedups,
        "regressions": {
            name: factor for name, factor in speedups.items() if factor < threshold
        },
        "missing": sorted(set(before_benches) - set(after_benches)),
        "added": sorted(set(after_benches) - set(before_benches)),
    }
