"""Command-line interface: run paper experiments from the shell.

Usage::

    python -m repro list                       # show available experiments
    python -m repro fig08 --ops 60000          # reproduce one figure
    python -m repro fig12be --ops 30000 --keys 10000
    python -m repro describe                   # quick engine demo + describe()
    python -m repro trace WO --policy ldc --trace-out run.jsonl
    python -m repro paper_scale --ops 500000   # fill + read at (reduced) paper scale
    python -m repro run RWB --shards 4 --workers 4   # sharded execution
    python -m repro run RWB --bg-threads 2 --slowdown-l0 8 --stop-l0 12
    python -m repro fig01s --ops 12000              # scheduled interference
    python -m repro crashtest --policy ldc --every 25   # crash-consistency sweep
    python -m repro crashtest --policy ldc --flash      # crash inside GC too
    python -m repro run RWB --flash                 # FTL/GC device layer on
    python -m repro fig_device_wa --ops 20000       # host/device/total WA
    python -m repro explore --policies udc,ldc,lazy_leveling --mixes RWB
    python -m repro explore --flash                 # device-WA winner columns
    python -m repro explore --report-out REPORT_design_space.md

The heavy lifting lives in :mod:`repro.harness.experiments`; this module
maps subcommand names to those entry points (:data:`EXPERIMENTS`, the one
table ``main`` dispatches on and ``repro list`` prints) and prints their
results as tables.  The ``trace`` subcommand runs one Table III workload
with the observability layer's event tracer attached and writes the full
engine timeline (flushes, compaction rounds, links/merges, stalls) as
JSON-lines.  How fast the simulator itself runs on the host is measured
by the benchmark of record, ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from .errors import UnknownPolicyError
from .harness import experiments
from .harness.report import format_table, mib
from .lsm.compaction.spec import resolve_factory
from .ssd.flash import DeviceConfig, FlashSpec
from .obs import (
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_DEVICE_READ,
    EV_DEVICE_WRITE,
    JsonLinesSink,
    RingBufferSink,
    Tracer,
    summarize_events,
)


def _print_output(output: experiments.ExperimentOutput) -> None:
    rows = []
    for row in output.rows:
        result = row.result
        rows.append(
            (
                row.workload,
                row.policy,
                round(result.throughput_ops_s),
                round(result.mean_latency_us, 1),
                round(result.latencies.percentile(99.9), 1),
                round(result.write_amplification, 2),
                round(mib(result.compaction_bytes_total), 1),
                round(mib(result.space_bytes), 2),
            )
        )
    print(
        format_table(
            [
                "workload",
                "policy",
                "ops/s",
                "avg us",
                "p99.9 us",
                "write amp",
                "compact MiB",
                "space MiB",
            ],
            rows,
            title=f"experiment: {output.name}",
        )
    )


def _run_fig01(ops: int, keys: int) -> None:
    out = experiments.fig01_latency_fluctuation(ops=ops, key_space=keys)
    points = out["points"]
    rows = [
        (f"{p.start_us / 1e3:.1f}ms", p.count, round(p.mean_latency_us, 1))
        for p in points[:40]
    ]
    print(format_table(["bucket", "ops", "mean latency us"], rows, title="fig01"))
    print(f"fluctuation ratio: {out['fluctuation_ratio']:.1f}x (paper: up to 49.13x)")


def _run_fig01s(ops: int, keys: int) -> None:
    out = experiments.fig01_scheduled_interference(ops=ops, key_space=keys)
    spreads = out["p99_p50_spread"]
    rows = [
        (
            policy,
            round(spreads[policy], 2),
            round(out["stall_time_us"][policy] / 1e3, 1),
            round(out["device_wait_us"][policy] / 1e3, 1),
        )
        for policy in sorted(spreads)
    ]
    print(
        format_table(
            ["policy", "write p99/p50", "stall ms", "device wait ms"],
            rows,
            title=f"fig01s (bg_threads={out['bg_threads']})",
        )
    )
    print(
        "scheduled interference: UDC spread should exceed LDC's "
        "(background compaction chunks share the device channel)"
    )


def _run_fig01ol(ops: int, keys: int) -> None:
    out = experiments.fig01_open_loop(ops=ops, key_space=keys)
    rows = []
    curves = out["curves"]
    for index, fraction in enumerate(out["load_fractions"]):
        for policy in ("UDC", "LDC"):
            row = curves[policy][index]
            rows.append(
                (
                    f"{fraction:.2f}",
                    policy,
                    round(row["offered_rate_ops_s"]),
                    round(row["p50_us"], 1),
                    round(row["p999_us"], 1),
                    f"{row['slo_violation_rate']:.4f}",
                    int(row["rejected"]),
                )
            )
    print(
        format_table(
            ["load", "policy", "rate ops/s", "p50 us", "p99.9 us",
             "SLO viol", "rejected"],
            rows,
            title=f"fig01_open_loop (SLO {out['slo_us']:g}us, "
            f"queue {out['queue_depth']}, {out['arrival']})",
        )
    )
    head = out["headline"]
    knee = out["knee_fraction"]
    print(
        f"UDC knee: load {knee} (first tested load with SLO violation "
        f"rate > 5%)" if knee is not None else "UDC knee: not reached"
    )
    print(
        f"headline @ load {head['load_fraction']:.2f} "
        f"({head['offered_rate_ops_s']:.0f} ops/s, above knee: "
        f"{head['above_knee']}): "
        f"UDC p99.9 {head['udc_p999_us']:.0f}us vs LDC "
        f"{head['ldc_p999_us']:.0f}us; SLO violation rate "
        f"{head['udc_slo_violation_rate']:.4f} vs "
        f"{head['ldc_slo_violation_rate']:.4f}"
    )
    print(
        "open-loop claim: UDC strictly worse on both -> "
        f"{head['udc_worse_p999'] and head['udc_worse_slo']}"
    )


def _run_tab1(ops: int, keys: int) -> None:
    shares = experiments.tab1_time_breakdown(ops=ops, key_space=keys)
    rows = [(name, f"{share:.1%}") for name, share in shares.items()]
    print(format_table(["module", "time share"], rows, title="Table I"))


def _run_fig08(ops: int, keys: int) -> None:
    out = experiments.fig08_tail_latency(ops=ops, key_space=keys)
    rows = [
        (f"P{pct:g}", round(out["UDC"][pct], 1), round(out["LDC"][pct], 1))
        for pct in sorted(out["UDC"])
    ]
    print(format_table(["percentile", "UDC us", "LDC us"], rows, title="fig08"))


def _run_fig13(ops: int, keys: int) -> None:
    out = experiments.fig13_bloom_ro(ops=ops, key_space=keys)
    rows = [
        (bits, int(d["block_reads"]), round(d["filter_bytes_per_table"] / 1024, 2))
        for bits, d in out.items()
    ]
    print(format_table(["bits/key", "block reads", "filter KiB"], rows, title="fig13"))


def _figure(runner: Callable[[int, int], None]):
    """Adapt an ``(ops, keys)`` figure printer to the dispatch signature."""

    def run(args: argparse.Namespace) -> int:
        runner(args.ops, args.keys)
        return 0

    return run


def _matrix_runner(fn: Callable[..., experiments.ExperimentOutput]):
    return _figure(
        lambda ops, keys: _print_output(fn(ops=ops, key_space=keys))
    )


def _counts_runner(fn: Callable[..., experiments.ExperimentOutput]):
    return _figure(
        lambda ops, keys: _print_output(
            fn(request_counts=(ops // 3, ops * 2 // 3, ops))
        )
    )


def _run_shard_scaling(ops: int, keys: int) -> None:
    out = experiments.shard_scaling(ops=ops, key_space=keys)
    rows = [
        (
            count,
            round(data["throughput_ops_s"]),
            round(data["write_amplification"], 2),
            round(data["compaction_mib"], 1),
            round(data["p999_us"], 1),
            round(data["wall_s"], 3),
        )
        for count, data in out.items()
    ]
    print(
        format_table(
            ["shards", "ops/s", "write amp", "compact MiB", "p99.9 us", "wall s"],
            rows,
            title="shard scaling (RWB, UDC per shard)",
        )
    )


def _run_describe(ops: int, keys: int) -> None:
    import random

    from . import DB

    db = DB(policy="ldc")
    rng = random.Random(0)
    for _ in range(min(ops, 20_000)):
        db.put(str(rng.randrange(keys)).zfill(16).encode(), b"v" * 128)
    print(db.describe())


def _policy_factory(name: str) -> Optional[Callable[[], object]]:
    """Resolve a registered policy name via the central registry.

    Prints the typed error (which lists every valid name) and returns
    ``None`` on a miss; callers turn that into exit status 2.
    """
    try:
        return resolve_factory(name)
    except UnknownPolicyError as exc:
        print(str(exc), file=sys.stderr)
        return None

#: Per-I/O events are dropped from the trace by default — a traced run
#: emits hundreds of device/cache events per compaction round, and the
#: compaction timeline is what ``repro trace`` exists to show.
_NOISY_KINDS = (EV_DEVICE_READ, EV_DEVICE_WRITE, EV_CACHE_HIT, EV_CACHE_MISS)


def run_trace(
    workload: str,
    policy: str,
    ops: int,
    keys: int,
    trace_out: Optional[str] = None,
    include_io: bool = False,
) -> int:
    """Run one Table III workload with the event tracer attached.

    Prints the per-kind event counts plus metrics-snapshot highlights;
    with ``trace_out`` the full timeline is also written as JSON-lines.
    """
    from .workload.spec import TABLE_III

    spec_factory = TABLE_III.get(workload)
    if spec_factory is None:
        known = ", ".join(TABLE_III)
        print(f"unknown workload {workload!r}; known: {known}", file=sys.stderr)
        return 2
    policy_factory = _policy_factory(policy)
    if policy_factory is None:
        return 2

    spec = spec_factory(num_operations=ops, key_space=keys, preload_keys=keys)
    kinds = None
    if not include_io:
        from .obs import ALL_EVENT_KINDS

        kinds = [k for k in ALL_EVENT_KINDS if k not in _NOISY_KINDS]
    ring = RingBufferSink()
    tracer = Tracer([ring], kinds=kinds)
    if trace_out is not None:
        tracer.add_sink(JsonLinesSink(trace_out))
    try:
        result = experiments.run_workload(
            spec, policy_factory, config=experiments.experiment_config(),
            tracer=tracer,
        )
    finally:
        tracer.close()

    print(f"trace: workload={spec.name} policy={result.policy} ops={result.operations}")
    counts = summarize_events(ring.events)
    rows = [(kind, count) for kind, count in counts.items()]
    print(format_table(["event", "count"], rows, title="event counts"))
    snap = result.metrics
    if snap is not None:
        highlights = [
            ("throughput ops/s", round(result.throughput_ops_s)),
            ("write amplification", round(snap.write_amplification, 2)),
            ("compaction MiB", round(mib(snap.compaction_bytes_total), 1)),
            ("cache hit ratio", round(snap.cache_hit_ratio, 3)),
        ]
        print(format_table(["metric", "value"], highlights, title="highlights"))
    if trace_out is not None:
        print(f"full timeline written to {trace_out}")
    return 0


def _build_flash_spec(
    over_provisioning: float,
    gc_policy: str,
    logical_mib: Optional[float],
    probe_space_bytes: Optional[int] = None,
) -> FlashSpec:
    """Build the CLI's flash geometry.

    An explicit ``--flash-logical-mib`` wins; otherwise the logical
    capacity is auto-sized from a flash-off probe's final store size at
    the same margin ``fig_device_wa`` uses, so GC pressure reflects the
    policy's write pattern rather than capacity starvation.
    """
    if logical_mib is not None:
        logical_bytes = max(int(logical_mib * 2**20), 1 << 20)
    else:
        assert probe_space_bytes is not None
        logical_bytes = max(
            int(probe_space_bytes * experiments.DEVICE_WA_SIZE_MARGIN), 1 << 20
        )
    return FlashSpec(
        logical_bytes=logical_bytes,
        over_provisioning=over_provisioning,
        gc_policy=gc_policy,
    )


def run_sharded_cli(
    workload: Optional[str],
    policy: str,
    ops: int,
    keys: int,
    shards: int,
    workers: int,
    partitioner: str,
    bg_threads: int = 0,
    slowdown_l0: Optional[int] = None,
    stop_l0: Optional[int] = None,
    flash: bool = False,
    flash_op: float = 0.07,
    flash_gc: str = "greedy",
    flash_logical_mib: Optional[float] = None,
) -> int:
    """Run one Table III workload across a sharded engine and report it.

    ``bg_threads >= 1`` turns on the virtual-time compaction scheduler
    per shard; ``slowdown_l0``/``stop_l0`` override the L0 write-throttle
    thresholds (docs/SCHEDULING.md).  ``flash=True`` mounts the page/block
    FTL layer (docs/DEVICE.md) under every shard's device and adds the
    device/total write-amplification rows to the report.
    """
    from .shard.runner import run_sharded_workload
    from .workload.spec import TABLE_III

    workload = workload or "RWB"
    spec_factory = TABLE_III.get(workload)
    if spec_factory is None:
        known = ", ".join(TABLE_III)
        print(f"unknown workload {workload!r}; known: {known}", file=sys.stderr)
        return 2
    policy_factory = _policy_factory(policy)
    if policy_factory is None:
        return 2
    overrides: Dict[str, object] = {"bg_threads": bg_threads}
    if slowdown_l0 is not None:
        overrides["l0_slowdown_trigger"] = slowdown_l0
    if stop_l0 is not None:
        overrides["l0_stop_trigger"] = stop_l0
    spec = spec_factory(num_operations=ops, key_space=keys)
    profile: object = None
    try:
        if flash:
            probe_space: Optional[int] = None
            if flash_logical_mib is None:
                probe = experiments.run_workload(
                    spec,
                    policy_factory,
                    config=experiments.experiment_config(**overrides),
                )
                probe_space = probe.space_bytes
            flash_spec = _build_flash_spec(
                flash_op, flash_gc, flash_logical_mib, probe_space
            )
            profile = DeviceConfig(flash=flash_spec)
            print(
                f"flash: {flash_spec.logical_bytes / 2**20:.1f} MiB logical "
                f"per shard, OP={flash_spec.over_provisioning:.0%}, "
                f"gc={flash_spec.gc_policy}"
            )
        kwargs: Dict[str, object] = {}
        if profile is not None:
            kwargs["profile"] = profile
        report = run_sharded_workload(
            spec,
            policy_factory,
            num_shards=shards,
            partitioner=partitioner,
            workers=workers,
            config=experiments.experiment_config(**overrides),
            **kwargs,
        )
    except Exception as exc:  # ConfigError: bad shard/partitioner/flash combo
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"run: workload={report.workload} policy={report.policy} "
        f"shards={report.num_shards} workers={report.workers} "
        f"partitioner={report.partitioner}"
    )
    snap = report.metrics
    highlights = [
        ("operations", report.operations),
        ("sim throughput ops/s", round(report.throughput_ops_s)),
        ("write amplification", round(report.write_amplification, 2)),
        ("compaction MiB", round(mib(snap.compaction_bytes_total), 1)),
        ("p99.9 latency us", round(report.latencies.percentile(99.9), 1)),
        ("wall seconds", round(report.wall_s, 3)),
    ]
    if flash:
        highlights.extend(
            [
                ("device write amp", round(report.device_write_amplification, 3)),
                ("total write amp", round(report.total_write_amplification, 2)),
                ("gc write MiB", round(mib(snap.gc_write_bytes), 2)),
                ("blocks erased", snap.blocks_erased),
            ]
        )
    if bg_threads >= 1:
        counters = snap.counters
        highlights.extend(
            [
                ("bg tasks completed", int(counters.get("sched.tasks_completed", 0))),
                ("stall ms", round(counters.get("sched.stall_time_us", 0) / 1e3, 1)),
                (
                    "slowdown ms",
                    round(counters.get("sched.slowdown_time_us", 0) / 1e3, 1),
                ),
                (
                    "device wait ms",
                    round(counters.get("sched.device_wait_us", 0) / 1e3, 1),
                ),
            ]
        )
    print(format_table(["metric", "value"], highlights, title="aggregate"))
    rows = [
        (
            index,
            result.operations,
            round(result.elapsed_us / 1e6, 3),
            round(result.write_amplification, 2),
            result.flush_count,
            result.compaction_count,
        )
        for index, result in enumerate(report.shard_results)
    ]
    print(
        format_table(
            ["shard", "ops", "virtual s", "write amp", "flushes", "compactions"],
            rows,
            title="per shard",
        )
    )
    return 0


def run_serve_cli(
    workload: Optional[str],
    policy: str,
    ops: int,
    keys: int,
    arrival: str = "poisson",
    rate: float = 15_000.0,
    tenants: int = 1,
    slo_us: float = 1_000.0,
    queue_depth: int = 128,
    discipline: str = "fifo",
    bg_threads: int = 0,
    seed: int = 7,
    shards: int = 1,
    partitioner: str = "hash",
) -> int:
    """Serve one Table III workload open-loop and report the client view.

    ``arrival`` picks the process (``poisson``/``onoff``/``diurnal``) or
    ``closed`` for closed-loop replay through the serve bookkeeping.
    ``rate`` is the aggregate offered load (virtual ops/s) split equally
    across ``tenants``; the report decomposes latency into queue wait and
    service time and shows per-tenant SLO-violation rates.
    """
    from .serve import ServeSpec, run_sharded_serve, serve_workload
    from .workload.spec import TABLE_III

    workload = workload or "RWB"
    spec_factory = TABLE_III.get(workload)
    if spec_factory is None:
        known = ", ".join(TABLE_III)
        print(f"unknown workload {workload!r}; known: {known}", file=sys.stderr)
        return 2
    policy_factory = _policy_factory(policy)
    if policy_factory is None:
        return 2
    spec = spec_factory(num_operations=ops, key_space=keys)
    config = experiments.experiment_config(bg_threads=bg_threads)
    try:
        serve_spec = ServeSpec(
            arrival=arrival,
            rate_ops_s=rate,
            num_tenants=tenants,
            queue_depth=queue_depth,
            discipline=discipline,
            slo_us=slo_us,
            seed=seed,
        )
        if shards > 1:
            report = run_sharded_serve(
                spec,
                policy_factory,
                serve_spec,
                num_shards=shards,
                partitioner=partitioner,
                config=config,
            )
            print(
                f"serve: workload={report.workload} policy={report.policy} "
                f"arrival={arrival} shards={report.num_shards} "
                f"partitioner={report.partitioner}"
            )
            highlights = [
                ("offered rate ops/s", round(rate)),
                ("arrived", report.arrived),
                ("completed", report.completed),
                ("rejected", report.rejected),
                ("sim throughput ops/s", round(report.throughput_ops_s)),
                ("SLO violation rate", round(report.slo_violation_rate, 4)),
                ("wait p99 us", round(report.wait_latencies.percentile(99.0), 1)),
                ("total p99.9 us", round(report.total_latencies.percentile(99.9), 1)),
            ]
            print(format_table(["metric", "value"], highlights, title="aggregate"))
            return 0
        result = serve_workload(spec, policy_factory, serve_spec, config=config)
    except Exception as exc:  # ConfigError: bad arrival/discipline combo
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"serve: workload={result.workload} policy={result.policy} "
        f"arrival={result.arrival} queue_depth={result.queue_depth} "
        f"discipline={result.discipline} bg_threads={bg_threads}"
    )
    highlights = [
        ("offered rate ops/s", round(result.offered_rate_ops_s)),
        ("arrived", result.arrived),
        ("admitted", result.admitted),
        ("rejected (queue full)", result.rejected_full),
        ("rejected (backpressure)", result.rejected_backpressure),
        ("completed", result.completed),
        ("sim throughput ops/s", round(result.throughput_ops_s)),
        ("SLO violation rate", round(result.slo_violation_rate, 4)),
    ]
    if result.completed:
        highlights.extend(
            [
                ("mean wait us", round(result.wait_latencies.mean(), 1)),
                ("mean service us", round(result.service_latencies.mean(), 1)),
                ("wait p99 us", round(result.wait_latencies.percentile(99.0), 1)),
                ("total p50 us", round(result.total_latencies.percentile(50.0), 1)),
                ("total p99 us", round(result.total_latencies.percentile(99.0), 1)),
                ("total p99.9 us", round(result.total_latencies.percentile(99.9), 1)),
            ]
        )
    print(format_table(["metric", "value"], highlights, title="client view"))
    if len(result.tenant_stats) > 1:
        rows = [
            (
                stats.tenant.name,
                stats.completed,
                stats.rejected_full + stats.rejected_backpressure,
                round(stats.slo_violation_rate, 4),
                round(stats.total_latencies.percentile(99.0), 1)
                if stats.completed
                else "-",
            )
            for stats in result.tenant_stats
        ]
        print(
            format_table(
                ["tenant", "completed", "rejected", "SLO viol rate", "p99 us"],
                rows,
                title="per tenant",
            )
        )
    return 0


def run_crashtest_cli(
    policy: str,
    ops: int,
    keys: int,
    every: int,
    shards: int,
    seed: int,
    value_bytes: int,
    corrupt: int,
    flash: bool = False,
) -> int:
    """Crash-point enumeration + corruption sweep (``repro crashtest``).

    Replays a deterministic mixed workload, crashing at every
    ``every``-th charged I/O, recovering, and checking the
    durability/atomicity oracle at each point; then seeds ``corrupt``
    read corruptions and requires all of them to be detected via CRC.
    ``flash=True`` mounts a deliberately tiny FTL geometry under the
    store so crash points land inside GC relocations too.  Exit status 0
    only when both passes hold.
    """
    from .faults import crashtest

    policy_factory = _policy_factory(policy)
    if policy_factory is None:
        return 2

    def progress(done: int, total: int) -> None:
        if done % 200 == 0 or done == total:
            print(f"  crash points: {done}/{total}", file=sys.stderr)

    report = crashtest.run_crashtest(
        policy_factory,
        policy_name=policy,
        num_ops=ops,
        num_keys=keys,
        value_bytes=value_bytes,
        seed=seed,
        stride=every,
        shards=shards,
        flash=crashtest.CRASHTEST_FLASH_SPEC if flash else None,
        progress=progress,
    )
    print(report.summary())
    corruption = None
    if corrupt > 0:
        corruption = crashtest.run_corruption_test(
            policy_factory,
            policy_name=policy,
            num_ops=min(ops, 1500),
            num_keys=keys,
            value_bytes=value_bytes,
            seed=seed,
            corruptions=corrupt,
        )
        print(corruption.summary())
    ok = report.ok and (corruption is None or corruption.ok)
    return 0 if ok else 1


def run_explore_cli(
    ops: int,
    keys: int,
    policies: Optional[str] = None,
    mixes: Optional[str] = None,
    profiles: Optional[str] = None,
    report_out: Optional[str] = None,
    flash: bool = False,
    flash_op: float = 0.07,
    flash_gc: str = "greedy",
    flash_logical_mib: Optional[float] = None,
) -> int:
    """Design-space exploration (``repro explore``).

    Sweeps registered policy compositions across workload mixes and
    device profiles, printing the WA/RA/p99 comparison grid; with
    ``--report-out`` the markdown report is also written to disk.
    ``flash=True`` mounts the same FTL geometry under every cell and adds
    device/total write-amplification columns plus a total-WA winner.
    """
    from .errors import ConfigError
    from .workload.spec import TABLE_III

    policy_names = None
    if policies:
        policy_names = [item.strip() for item in policies.split(",") if item.strip()]
        for name in policy_names:
            if _policy_factory(name) is None:
                return 2
    mix_names = list(experiments.DESIGN_SPACE_MIXES)
    if mixes:
        mix_names = [item.strip() for item in mixes.split(",") if item.strip()]
        for name in mix_names:
            if name not in TABLE_III:
                known = ", ".join(TABLE_III)
                print(f"unknown workload {name!r}; known: {known}", file=sys.stderr)
                return 2
    profile_names = list(experiments.DESIGN_SPACE_PROFILES)
    if profiles:
        profile_names = [item.strip() for item in profiles.split(",") if item.strip()]
    try:
        flash_spec = None
        if flash:
            probe_space: Optional[int] = None
            if flash_logical_mib is None:
                # One shared geometry for the whole sweep: size it from a
                # flash-off probe of the first mix under UDC (the widest
                # footprint spread is policy-side, which the margin covers).
                probe = experiments.run_workload(
                    experiments.workloads.TABLE_III[mix_names[0]](
                        num_operations=ops, key_space=keys
                    ),
                    experiments.udc_factory,
                    config=experiments.experiment_config(),
                )
                probe_space = probe.space_bytes
            flash_spec = _build_flash_spec(
                flash_op, flash_gc, flash_logical_mib, probe_space
            )
        report = experiments.design_space(
            policies=policy_names,
            mixes=mix_names,
            profiles=profile_names,
            ops=ops,
            key_space=keys,
            flash=flash_spec,
        )
    except ConfigError as exc:  # unknown device profile
        print(str(exc), file=sys.stderr)
        return 2
    headers = [
        "policy",
        "workload",
        "device",
        "ops/s",
        "p99 us",
        "WA",
        "RA",
        "compact MiB",
        "space MiB",
    ]
    if flash_spec is not None:
        headers += ["dev WA", "total WA"]
    rows = []
    for point in report["points"]:
        row = [
            point.policy,
            point.workload,
            point.profile,
            round(point.throughput_ops_s),
            round(point.p99_us, 1),
            round(point.write_amplification, 2),
            round(point.read_amplification, 2),
            round(point.compaction_mib, 2),
            round(point.space_mib, 2),
        ]
        if flash_spec is not None:
            row += [
                round(point.device_write_amplification, 3),
                round(point.total_write_amplification, 2),
            ]
        rows.append(tuple(row))
    print(format_table(headers, rows, title="design-space exploration"))
    winner_headers = [
        "cell", "lowest WA", "lowest RA", "lowest p99", "highest ops/s",
    ]
    if flash_spec is not None:
        winner_headers.append("lowest total WA")
    winner_rows = []
    for cell, best in report["winners"].items():
        row = [
            cell,
            best["write_amplification"],
            best["read_amplification"],
            best["p99_us"],
            best["throughput_ops_s"],
        ]
        if flash_spec is not None:
            row.append(best["total_write_amplification"])
        winner_rows.append(tuple(row))
    print(format_table(winner_headers, winner_rows, title="winners"))
    if report_out is not None:
        with open(report_out, "w", encoding="utf-8") as handle:
            handle.write(experiments.format_design_report(report))
        print(f"report written to {report_out}")
    return 0


def run_device_wa_cli(
    ops: int,
    keys: int,
    flash_op: float = 0.07,
    flash_gc: str = "greedy",
) -> int:
    """End-to-end write-amplification comparison (``repro fig_device_wa``).

    Sizes one flash geometry from a flash-off probe, runs every
    registered policy on it and prints host / device / total WA with the
    GC and wear counters (docs/DEVICE.md).
    """
    from .errors import ConfigError

    try:
        report = experiments.fig_device_wa(
            ops=ops,
            key_space=keys,
            over_provisioning=flash_op,
            gc_policy=flash_gc,
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(experiments.format_device_wa_report(report))
    return 0


def _run_paper_scale(args: argparse.Namespace) -> int:
    """``repro paper_scale``: the fill + read pair at (``--ops``-reduced)
    paper scale.  The last output line is the result as one JSON object,
    which is what the CI ``paper-scale`` jobs parse."""
    out = experiments.paper_scale(ops=args.ops)
    rows = [
        (
            phase,
            args.ops,
            round(out[f"{phase}_wall_s"], 1),
            round(out[f"{phase}_cpu_s"], 1),
            round(out[f"{phase}_sim_throughput_ops_s"]),
            round(out[f"{phase}_p99_us"], 1),
        )
        for phase in ("fill", "read")
    ]
    print(
        format_table(
            ["phase", "ops", "wall s", "cpu s", "sim ops/s", "p99 us"],
            rows,
            title=f"paper_scale (UDC, write amp "
            f"{out['write_amplification']:.2f})",
        )
    )
    print(json.dumps(out, sort_keys=True))
    return 0


def _run_list(args: argparse.Namespace) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _run_device_wa(args: argparse.Namespace) -> int:
    return run_device_wa_cli(
        args.ops,
        args.keys,
        flash_op=args.flash_op,
        flash_gc=args.flash_gc,
    )


def _run_explore(args: argparse.Namespace) -> int:
    return run_explore_cli(
        args.ops,
        args.keys,
        policies=args.policies,
        mixes=args.mixes,
        profiles=args.profiles,
        report_out=args.report_out,
        flash=args.flash,
        flash_op=args.flash_op,
        flash_gc=args.flash_gc,
        flash_logical_mib=args.flash_logical_mib,
    )


def _run_crashtest(args: argparse.Namespace) -> int:
    return run_crashtest_cli(
        args.policy,
        args.ops,
        args.keys,
        every=args.every,
        shards=args.shards,
        seed=args.seed,
        value_bytes=args.value_bytes,
        corrupt=args.corrupt,
        flash=args.flash,
    )


def _run_serve(args: argparse.Namespace) -> int:
    return run_serve_cli(
        args.workload,
        args.policy,
        args.ops,
        args.keys,
        arrival=args.arrival,
        rate=args.rate,
        tenants=args.tenants,
        slo_us=args.slo_us,
        queue_depth=args.queue_depth,
        discipline=args.discipline,
        bg_threads=args.bg_threads,
        seed=args.seed,
        shards=args.shards,
        partitioner=args.partitioner,
    )


def _run_sharded(args: argparse.Namespace) -> int:
    return run_sharded_cli(
        args.workload,
        args.policy,
        args.ops,
        args.keys,
        shards=args.shards,
        workers=args.workers or 1,
        partitioner=args.partitioner,
        bg_threads=args.bg_threads,
        slowdown_l0=args.slowdown_l0,
        stop_l0=args.stop_l0,
        flash=args.flash,
        flash_op=args.flash_op,
        flash_gc=args.flash_gc,
        flash_logical_mib=args.flash_logical_mib,
    )


def _run_trace(args: argparse.Namespace) -> int:
    if args.workload is None:
        print("trace requires a workload name, e.g. `repro trace WO`",
              file=sys.stderr)
        return 2
    return run_trace(
        args.workload,
        args.policy,
        args.ops,
        args.keys,
        trace_out=args.trace_out,
        include_io=args.include_io,
    )


#: Every subcommand, by name: the one table ``main`` dispatches on, that
#: ``repro list`` prints and that the unknown-subcommand error quotes.
#: Handlers take the parsed arguments and return the process exit code.
EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list": _run_list,
    "fig01": _figure(_run_fig01),
    "fig01s": _figure(_run_fig01s),
    "fig01_open_loop": _figure(_run_fig01ol),
    "tab1": _figure(_run_tab1),
    "fig07": _matrix_runner(experiments.fig07_fanout_udc),
    "fig08": _figure(_run_fig08),
    "fig09": _matrix_runner(experiments.fig09_avg_latency),
    "fig10a": _matrix_runner(experiments.fig10a_throughput_get),
    "fig10b": _matrix_runner(experiments.fig10b_throughput_scan),
    "fig10c": _matrix_runner(experiments.fig10c_compaction_io),
    "fig11": _matrix_runner(experiments.fig11_zipf),
    "fig12ad": _matrix_runner(experiments.fig12ad_slicelink_threshold),
    "fig12be": _matrix_runner(experiments.fig12be_fanout_sweep),
    "fig12cf": _matrix_runner(experiments.fig12cf_bloom_rwb),
    "fig13": _figure(_run_fig13),
    "fig14": _counts_runner(experiments.fig14_scalability),
    "fig15": _counts_runner(experiments.fig15_space),
    "adaptive": _matrix_runner(experiments.ablation_adaptive_threshold),
    "tiered": _matrix_runner(experiments.ablation_tiered_tail),
    "asymmetry": _matrix_runner(experiments.ablation_device_asymmetry),
    "shard_scaling": _figure(_run_shard_scaling),
    "describe": _figure(_run_describe),
    "paper_scale": _run_paper_scale,
    "fig_device_wa": _run_device_wa,
    "trace": _run_trace,
    "run": _run_sharded,
    "serve": _run_serve,
    "crashtest": _run_crashtest,
    "explore": _run_explore,
}

#: ``(--ops, --keys)`` defaults of the subcommands that do not take the
#: figures' 20000 / 8000; ``paper_scale`` derives its key space from
#: ``--ops`` and ignores ``--keys``.
_SIZE_DEFAULTS = {
    "crashtest": (2_000, 200),
    "paper_scale": (experiments.PAPER_SCALE_OPS, 0),
}

def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from the LDC paper (ICDE 2019).",
    )
    parser.add_argument(
        "experiment",
        help="subcommand name; 'list' prints every one",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="Table III workload name (trace subcommand only), e.g. WO or RWB",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="measured operations (default 20000; 2000 for 'crashtest'; "
        "5000000 per phase for 'paper_scale')",
    )
    parser.add_argument(
        "--keys",
        type=int,
        default=None,
        help="key-space size (default 8000; 200 for 'crashtest')",
    )
    parser.add_argument(
        "--policy",
        default="ldc",
        help="registered compaction policy for 'trace'/'run'/'crashtest' "
        "(see `repro explore` or repro.available_policies())",
    )
    parser.add_argument(
        "--policies",
        default=None,
        metavar="NAMES",
        help="comma-separated registered policies to sweep "
        "('explore' only, default: all)",
    )
    parser.add_argument(
        "--mixes",
        default=None,
        metavar="NAMES",
        help="comma-separated Table III workload mixes "
        "('explore' only, default: WO,RWB,RH)",
    )
    parser.add_argument(
        "--profiles",
        default=None,
        metavar="NAMES",
        help="comma-separated device profiles "
        "('explore' only, default: enterprise-pcie)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the markdown comparison report to PATH ('explore' only)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the full event timeline as JSON-lines to PATH ('trace' only)",
    )
    parser.add_argument(
        "--include-io",
        action="store_true",
        help="also trace per-I/O device and cache events (verbose)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for experiment grids and sharded runs "
        "(default serial)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="number of keyspace shards ('run' only)",
    )
    parser.add_argument(
        "--partitioner",
        default="hash",
        choices=("hash", "range"),
        help="keyspace partitioning strategy ('run' only)",
    )
    parser.add_argument(
        "--bg-threads",
        type=int,
        default=0,
        metavar="N",
        help="background compaction threads per shard; >= 1 turns on the "
        "virtual-time scheduler ('run'/'serve', default 0 = off)",
    )
    parser.add_argument(
        "--slowdown-l0",
        type=int,
        default=None,
        metavar="N",
        help="L0 file count that starts per-write slowdown delays "
        "('run' only, default from LSMConfig)",
    )
    parser.add_argument(
        "--stop-l0",
        type=int,
        default=None,
        metavar="N",
        help="L0 file count that stalls writes until compaction catches up "
        "('run' only, default from LSMConfig)",
    )
    parser.add_argument(
        "--arrival",
        default="poisson",
        choices=("poisson", "onoff", "diurnal", "closed"),
        help="arrival process for 'serve' (default poisson; 'closed' "
        "replays the workload closed-loop)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=15_000.0,
        metavar="OPS_S",
        help="aggregate offered load in virtual ops/s ('serve' only, "
        "default 15000)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=1,
        metavar="N",
        help="equal-rate tenants sharing the offered load ('serve' only)",
    )
    parser.add_argument(
        "--slo-us",
        type=float,
        default=1_000.0,
        metavar="US",
        help="latency SLO in virtual microseconds, queue wait + service "
        "('serve' only, default 1000)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=128,
        metavar="N",
        help="bounded request-queue capacity; arrivals beyond it are "
        "rejected ('serve' only, default 128)",
    )
    parser.add_argument(
        "--discipline",
        default="fifo",
        choices=("fifo", "priority"),
        help="request-queue discipline ('serve' only, default fifo)",
    )
    parser.add_argument(
        "--every",
        type=int,
        default=1,
        metavar="N",
        help="crash at every Nth I/O (stride sampling; 'crashtest' only)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed: workload for 'crashtest', arrival streams for 'serve'",
    )
    parser.add_argument(
        "--value-bytes",
        type=int,
        default=32,
        metavar="N",
        help="value size for the crashtest workload ('crashtest' only)",
    )
    parser.add_argument(
        "--corrupt",
        type=int,
        default=25,
        metavar="N",
        help="seeded read corruptions after the crash sweep; 0 disables "
        "('crashtest' only)",
    )
    parser.add_argument(
        "--flash",
        action="store_true",
        help="mount the page/block FTL flash layer under the simulated "
        "device ('run', 'explore', 'crashtest'; see docs/DEVICE.md)",
    )
    parser.add_argument(
        "--flash-op",
        type=float,
        default=0.07,
        metavar="FRACTION",
        help="flash over-provisioning fraction (default 0.07; "
        "'run'/'explore'/'fig_device_wa')",
    )
    parser.add_argument(
        "--flash-gc",
        default="greedy",
        choices=("greedy", "cost_benefit"),
        help="GC victim-selection policy (default greedy; "
        "'run'/'explore'/'fig_device_wa')",
    )
    parser.add_argument(
        "--flash-logical-mib",
        type=float,
        default=None,
        metavar="MIB",
        help="logical flash capacity in MiB; default auto-sizes from a "
        "flash-off probe of the workload ('run'/'explore')",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    default_ops, default_keys = _SIZE_DEFAULTS.get(
        args.experiment, (20_000, 8_000)
    )
    if args.ops is None:
        args.ops = default_ops
    if args.keys is None:
        args.keys = default_keys
    if args.workers is not None:
        experiments.set_default_workers(args.workers)
    handler = EXPERIMENTS.get(args.experiment)
    if handler is None:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    return handler(args)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
