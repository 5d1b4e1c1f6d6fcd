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
    python -m repro fig_device_wa --ops 20000       # host/device/total WA, RWB
    python -m repro explore --policies udc,ldc,tiered --mixes RWB
    python -m repro explore --flash                 # device-WA winner columns

The heavy lifting lives in :mod:`repro.harness.experiments`; this module
maps subcommand names to those entry points (:data:`EXPERIMENTS`, the one
table ``main`` dispatches on and ``repro list`` prints) and prints their
results as tables; every experiment sized by ``--ops`` / ``--keys`` is a
:data:`FIGURES` entry, whose ``run`` / ``show`` pair ``benchmarks/``
reuses, and the other seven subcommands are tools.  The ``trace``
subcommand runs one Table III workload with the observability layer's
event tracer attached and writes the full engine timeline (flushes,
compaction rounds, links/merges, stalls) as JSON-lines.  How fast the
simulator itself runs on the host is measured by the benchmark of
record, ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from . import DB
from .errors import ConfigError, FlashFullError
from .faults import crashtest
from .harness import experiments
from .harness.report import format_table, mib
from .lsm.compaction.spec import get_spec
from .lsm.config import LSMConfig
from .obs import (
    ALL_EVENT_KINDS,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_DEVICE_READ,
    EV_DEVICE_WRITE,
    JsonLinesSink,
    RingBufferSink,
    Tracer,
    summarize_events,
)
from .serve import ServeSpec, run_sharded_serve, serve_workload
from .shard.runner import run_sharded_workload
from .ssd.flash import DeviceConfig, FlashSpec
from .ssd.profile import ENTERPRISE_PCIE, SSDProfile
from .workload.spec import WorkloadSpec


class Figure(NamedTuple):
    """One measured experiment: ``run(ops, keys)`` measures it and
    ``show(out)`` prints its table.  ``repro <name>`` is
    ``show(run(--ops, --keys))``; ``benchmarks/`` runs the same pair and
    checks the paper's claims against ``out``."""

    run: Callable[[int, int], Any]
    show: Callable[[Any], None]

    def __call__(self, args: argparse.Namespace) -> None:
        self.show(self.run(args.ops, args.keys))


def _sized(fn: Callable[..., Any]) -> Callable[[int, int], Any]:
    """``fn`` at ``ops`` operations over ``keys`` keys."""
    return lambda ops, keys: fn(ops=ops, key_space=keys)


def _by_counts(fn: Callable[..., Any]) -> Callable[[int, int], Any]:
    """``fn`` swept over request counts up to ``ops``; Figs. 14/15 derive
    each key space from the count themselves."""
    return lambda ops, keys: fn(request_counts=(ops // 3, ops * 2 // 3, ops))


def _show_grid(output: experiments.ExperimentOutput) -> None:
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


def _show_fig01(out: Dict[str, Any]) -> None:
    rows = [
        (f"{p.start_us / 1e3:.1f}ms", p.count, round(p.mean_latency_us, 1))
        for p in out["points"][:40]
    ]
    print(format_table(["bucket", "ops", "mean latency us"], rows, title="fig01"))
    print(f"fluctuation ratio: {out['fluctuation_ratio']:.1f}x (paper: up to 49.13x)")


def _show_fig01s(out: Dict[str, Any]) -> None:
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


def _show_fig01ol(out: Dict[str, Any]) -> None:
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


def _show_tab1(shares: Dict[str, float]) -> None:
    rows = [(name, f"{share:.1%}") for name, share in shares.items()]
    print(format_table(["module", "time share"], rows, title="Table I"))


def _show_fig08(out: Dict[str, Dict[float, float]]) -> None:
    rows = [
        (f"P{pct:g}", round(out["UDC"][pct], 1), round(out["LDC"][pct], 1))
        for pct in sorted(out["UDC"])
    ]
    print(format_table(["percentile", "UDC us", "LDC us"], rows, title="fig08"))


def _show_fig13(out: Dict[int, Dict[str, float]]) -> None:
    rows = [
        (bits, int(d["block_reads"]), round(d["filter_bytes_per_table"] / 1024, 2))
        for bits, d in out.items()
    ]
    print(format_table(["bits/key", "block reads", "filter KiB"], rows, title="fig13"))


def _show_shard_scaling(out: Dict[int, Dict[str, float]]) -> None:
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


def _run_describe(args: argparse.Namespace) -> None:
    db = DB(policy="ldc")
    rng = random.Random(0)
    for _ in range(min(args.ops, 20_000)):
        db.put(str(rng.randrange(args.keys)).zfill(16).encode(), b"v" * 128)
    print(db.describe())


def _workload_spec(args: argparse.Namespace, **overrides: object) -> WorkloadSpec:
    """The Table III workload ``args`` names (RWB when omitted) at
    ``--ops`` / ``--keys``, after checking ``--policy`` against the
    registry; a miss on either is a typed :class:`ConfigError` listing
    the valid names, which :func:`main` turns into exit status 2."""
    get_spec(args.policy)
    return experiments.paper_mix(
        args.workload or "RWB", args.ops, args.keys, **overrides
    )


def _flash_spec(
    args: argparse.Namespace, spec: WorkloadSpec, **probe: object
) -> FlashSpec:
    """``--flash-op`` / ``--flash-gc`` / ``--flash-logical-mib`` as a
    :class:`~repro.ssd.flash.FlashSpec`, auto-sized from a flash-off probe
    of ``spec`` when no capacity is given."""
    return experiments.sized_flash_spec(
        spec,
        over_provisioning=args.flash_op,
        gc_policy=args.flash_gc,
        logical_mib=args.flash_logical_mib,
        **probe,
    )


#: Per-I/O events are dropped from the trace by default — a traced run
#: emits hundreds of device/cache events per compaction round, and the
#: compaction timeline is what ``repro trace`` exists to show.
_NOISY_KINDS = (EV_DEVICE_READ, EV_DEVICE_WRITE, EV_CACHE_HIT, EV_CACHE_MISS)


def _run_trace(args: argparse.Namespace) -> None:
    """Run one Table III workload with the event tracer attached.

    Prints the per-kind event counts plus metrics-snapshot highlights;
    with ``--trace-out`` the full timeline is also written as JSON-lines.
    """
    if args.workload is None:
        raise ConfigError("trace requires a workload name, e.g. `repro trace WO`")
    spec = _workload_spec(args, preload_keys=args.keys)
    kinds = None
    if not args.include_io:
        kinds = [k for k in ALL_EVENT_KINDS if k not in _NOISY_KINDS]
    ring = RingBufferSink()
    tracer = Tracer([ring], kinds=kinds)
    if args.trace_out is not None:
        tracer.add_sink(JsonLinesSink(args.trace_out))
    try:
        result = experiments.run_workload(spec, args.policy, tracer=tracer)
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
    if args.trace_out is not None:
        print(f"full timeline written to {args.trace_out}")


def _run_sharded(args: argparse.Namespace) -> None:
    """Run one Table III workload across a sharded engine and report it.

    ``--bg-threads >= 1`` turns on the virtual-time compaction scheduler
    per shard; ``--slowdown-l0`` / ``--stop-l0`` override the L0
    write-throttle thresholds (docs/SCHEDULING.md).  ``--flash`` mounts
    the page/block FTL layer (docs/DEVICE.md) under every shard's device
    and adds the device/total write-amplification rows to the report.
    """
    spec = _workload_spec(args)
    overrides: Dict[str, object] = {"bg_threads": args.bg_threads}
    if args.slowdown_l0 is not None:
        overrides["l0_slowdown_trigger"] = args.slowdown_l0
    if args.stop_l0 is not None:
        overrides["l0_stop_trigger"] = args.stop_l0
    config = LSMConfig(**overrides)  # type: ignore[arg-type]
    profile: "SSDProfile | DeviceConfig" = ENTERPRISE_PCIE
    if args.flash:
        flash_spec = _flash_spec(args, spec, policy=args.policy, config=config)
        profile = DeviceConfig(flash=flash_spec)
        print(
            f"flash: {flash_spec.logical_bytes / 2**20:.1f} MiB logical "
            f"per shard, OP={flash_spec.over_provisioning:.0%}, "
            f"gc={flash_spec.gc_policy}"
        )
    report = run_sharded_workload(
        spec,
        args.policy,
        num_shards=args.shards,
        partitioner=args.partitioner,
        workers=experiments.default_workers() or 1,
        config=config,
        profile=profile,
    )
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
    if args.flash:
        highlights.extend(
            [
                ("device write amp", round(report.device_write_amplification, 3)),
                ("total write amp", round(report.total_write_amplification, 2)),
                ("gc write MiB", round(mib(snap.gc_write_bytes), 2)),
                ("blocks erased", snap.blocks_erased),
            ]
        )
    if args.bg_threads >= 1:
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


def _run_serve(args: argparse.Namespace) -> None:
    """Serve one Table III workload open-loop and report the client view.

    ``--arrival`` picks the process (``poisson``/``onoff``/``diurnal``) or
    ``closed`` for closed-loop replay through the serve bookkeeping.
    ``--rate`` is the aggregate offered load (virtual ops/s) split equally
    across ``--tenants``; the report decomposes latency into queue wait
    and service time and shows per-tenant SLO-violation rates.
    """
    spec = _workload_spec(args)
    config = LSMConfig(bg_threads=args.bg_threads)
    serve_spec = ServeSpec(
        arrival=args.arrival,
        rate_ops_s=args.rate,
        num_tenants=args.tenants,
        queue_depth=args.queue_depth,
        discipline=args.discipline,
        slo_us=args.slo_us,
        seed=args.seed,
    )
    if args.shards > 1:
        report = run_sharded_serve(
            spec,
            args.policy,
            serve_spec,
            num_shards=args.shards,
            partitioner=args.partitioner,
            config=config,
        )
        print(
            f"serve: workload={report.workload} policy={report.policy} "
            f"arrival={args.arrival} shards={report.num_shards} "
            f"partitioner={report.partitioner}"
        )
        highlights = [
            ("offered rate ops/s", round(args.rate)),
            ("arrived", report.arrived),
            ("completed", report.completed),
            ("rejected", report.rejected),
            ("sim throughput ops/s", round(report.throughput_ops_s)),
            ("SLO violation rate", round(report.slo_violation_rate, 4)),
            ("wait p99 us", round(report.wait_latencies.percentile(99.0), 1)),
            ("total p99.9 us", round(report.total_latencies.percentile(99.9), 1)),
        ]
        print(format_table(["metric", "value"], highlights, title="aggregate"))
        return
    result = serve_workload(spec, args.policy, serve_spec, config=config)
    print(
        f"serve: workload={result.workload} policy={result.policy} "
        f"arrival={result.arrival} queue_depth={result.queue_depth} "
        f"discipline={result.discipline} bg_threads={args.bg_threads}"
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


def _run_crashtest(args: argparse.Namespace) -> int:
    """Crash-point enumeration + corruption sweep (``repro crashtest``).

    Replays a deterministic mixed workload, crashing at every
    ``--every``-th charged I/O, recovering, and checking the
    durability/atomicity oracle at each point; then seeds ``--corrupt``
    read corruptions and requires all of them to be detected via CRC.
    ``--flash`` mounts a deliberately tiny FTL geometry under the store
    so crash points land inside GC relocations too.  Exit status 0 only
    when both passes hold.
    """

    def progress(done: int, total: int) -> None:
        if done % 200 == 0 or done == total:
            print(f"  crash points: {done}/{total}", file=sys.stderr)

    report = crashtest.run_crashtest(
        args.policy,
        num_ops=args.ops,
        num_keys=args.keys,
        value_bytes=args.value_bytes,
        seed=args.seed,
        stride=args.every,
        shards=args.shards,
        flash=crashtest.CRASHTEST_FLASH_SPEC if args.flash else None,
        progress=progress,
    )
    print(report.summary())
    corruption = None
    if args.corrupt > 0:
        corruption = crashtest.run_corruption_test(
            args.policy,
            num_ops=min(args.ops, 1500),
            num_keys=args.keys,
            value_bytes=args.value_bytes,
            seed=args.seed,
            corruptions=args.corrupt,
        )
        print(corruption.summary())
    ok = report.ok and (corruption is None or corruption.ok)
    return 0 if ok else 1


def _names(csv: Optional[str], default: Sequence[str] = ()) -> List[str]:
    """A comma-separated flag value as a list (``default`` when unset)."""
    names = [item.strip() for item in (csv or "").split(",") if item.strip()]
    return names or list(default)


def _run_explore(args: argparse.Namespace) -> None:
    """Design-space exploration (``repro explore``).

    Sweeps registered policy compositions across workload mixes and
    device profiles, printing the WA/RA/p99 comparison grid.
    ``--flash`` mounts the same FTL geometry under every cell and adds
    device/total write-amplification columns plus a total-WA winner.
    """
    mixes = _names(args.mixes, experiments.DESIGN_SPACE_MIXES)
    flash_spec = None
    if args.flash:
        # One shared geometry for the whole sweep: size it from a
        # flash-off probe of the first mix under UDC (the widest
        # footprint spread is policy-side, which the margin covers).
        first = experiments.paper_mix(mixes[0], args.ops, args.keys)
        flash_spec = _flash_spec(args, first)
    report = experiments.design_space(
        policies=_names(args.policies) or None,
        mixes=mixes,
        profiles=_names(args.profiles, experiments.DESIGN_SPACE_PROFILES),
        ops=args.ops,
        key_space=args.keys,
        flash=flash_spec,
    )
    points, winners = experiments.design_tables(report)
    print(format_table(*points, title="design-space exploration"))
    print(format_table(*winners, title="winners"))


def _show_device_wa(report: Dict[str, Any]) -> None:
    """Host / device / total WA of every policy on one flash geometry,
    lowest total first, with the GC and wear counters (docs/DEVICE.md)."""
    flash: FlashSpec = report["flash"]
    points = report["points"]
    spec = points[0][0].spec
    lines = [
        f"Device write amplification — {spec.name} "
        f"({spec.num_operations} ops over {spec.key_space} keys)",
        f"flash: {flash.logical_bytes / 2**20:.1f} MiB logical, "
        f"OP={flash.over_provisioning:.0%}, gc={flash.gc_policy}, "
        f"{flash.total_blocks} blocks x {flash.pages_per_block} pages "
        f"x {flash.page_bytes} B",
        "",
        f"{'policy':<16} {'host WA':>8} {'dev WA':>8} {'total WA':>9} "
        f"{'GC MiB':>8} {'erases':>7} {'max PE':>7}",
    ]
    for task, r in sorted(points, key=lambda p: p[1].total_write_amplification):
        lines.append(
            f"{task.policy_label:<16} {r.write_amplification:>8.3f} "
            f"{r.device_write_amplification:>8.3f} {r.total_write_amplification:>9.3f} "
            f"{r.gc_write_bytes / 2**20:>8.2f} {r.blocks_erased:>7.0f} "
            f"{r.max_erase_count:>7.0f}"
        )
    (best,) = report["winners"].values()
    lines += ["", f"lowest total WA: {best['total_write_amplification']}"]
    print("\n".join(lines))


def _show_paper_scale(out: Dict[str, float]) -> None:
    """The fill + read pair at (``--ops``-reduced) paper scale.  The last
    output line is the result as one JSON object, which is what the CI
    ``paper-scale`` jobs parse."""
    rows = [
        (
            phase,
            out["ops"] // 2,
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


def _run_list(args: argparse.Namespace) -> None:
    for name in EXPERIMENTS:
        print(name)


#: Every experiment sized by ``--ops`` / ``--keys`` (the paper's figures
#: and what goes beyond them), by subcommand name: each is run one way,
#: here, by ``repro`` and by ``benchmarks/``.
FIGURES: Dict[str, Figure] = {
    "fig01": Figure(_sized(experiments.fig01_latency_fluctuation), _show_fig01),
    "fig01s": Figure(_sized(experiments.fig01_scheduled_interference), _show_fig01s),
    "fig01_open_loop": Figure(_sized(experiments.fig01_open_loop), _show_fig01ol),
    "tab1": Figure(_sized(experiments.tab1_time_breakdown), _show_tab1),
    "fig07": Figure(_sized(experiments.fig07_fanout_udc), _show_grid),
    "fig08": Figure(_sized(experiments.fig08_tail_latency), _show_fig08),
    "fig09": Figure(_sized(experiments.fig09_avg_latency), _show_grid),
    "fig10a": Figure(_sized(experiments.fig10a_throughput_get), _show_grid),
    "fig10b": Figure(_sized(experiments.fig10b_throughput_scan), _show_grid),
    "fig10c": Figure(_sized(experiments.fig10c_compaction_io), _show_grid),
    "fig11": Figure(_sized(experiments.fig11_zipf), _show_grid),
    "fig12ad": Figure(_sized(experiments.fig12ad_slicelink_threshold), _show_grid),
    "fig12be": Figure(_sized(experiments.fig12be_fanout_sweep), _show_grid),
    "fig12cf": Figure(_sized(experiments.fig12cf_bloom_rwb), _show_grid),
    "fig13": Figure(_sized(experiments.fig13_bloom_ro), _show_fig13),
    "fig14": Figure(_by_counts(experiments.fig14_scalability), _show_grid),
    "fig15": Figure(_by_counts(experiments.fig15_space), _show_grid),
    "adaptive": Figure(_sized(experiments.ablation_adaptive_threshold), _show_grid),
    "tiered": Figure(_sized(experiments.ablation_tiered_tail), _show_grid),
    "asymmetry": Figure(_sized(experiments.ablation_device_asymmetry), _show_grid),
    "shard_scaling": Figure(_sized(experiments.shard_scaling), _show_shard_scaling),
    "paper_scale": Figure(
        lambda ops, keys: experiments.paper_scale(ops=ops), _show_paper_scale
    ),
    "fig_device_wa": Figure(_sized(experiments.fig_device_wa), _show_device_wa),
}

#: Every subcommand, by name: the one table ``main`` dispatches on, that
#: ``repro list`` prints and that the unknown-subcommand error quotes.
#: A handler takes the parsed arguments and returns the process exit code
#: (``None`` = 0); a :class:`Figure` is its own handler, so adding a
#: figure is one line in :data:`FIGURES`.
EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], Optional[int]]] = {
    "list": _run_list,
    **FIGURES,
    "describe": _run_describe,
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
        help="Table III workload name, e.g. WO or RWB: required by 'trace', "
        "optional for 'run'/'serve' (default RWB)",
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
        help="registered compaction policy for 'trace'/'run'/'serve'/'crashtest' "
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
        help="number of keyspace shards ('run'/'serve'/'crashtest')",
    )
    parser.add_argument(
        "--partitioner",
        default="hash",
        choices=("hash", "range"),
        help="keyspace partitioning strategy ('run'/'serve')",
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
        "'run'/'explore')",
    )
    parser.add_argument(
        "--flash-gc",
        default="greedy",
        choices=("greedy", "cost_benefit"),
        help="GC victim-selection policy (default greedy; "
        "'run'/'explore')",
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
    handler = EXPERIMENTS.get(args.experiment)
    if handler is None:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    # Mis-configuration is typed (unknown policy / workload / profile, a
    # count below 1, a flash device too small for the store) and exits 2;
    # anything else is an engine bug and keeps its traceback.  --workers
    # holds for this call only.
    workers = experiments.default_workers()
    try:
        if args.workers is not None:
            experiments.set_default_workers(args.workers)
        return handler(args) or 0
    except (ConfigError, FlashFullError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        experiments.set_default_workers(workers)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
