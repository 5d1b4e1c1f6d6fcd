"""The public surface after each round of deletions.

Every exported name resolves, and what was removed stays removed: the
policy shims (one way to build a policy — the registry — so the only
exported policy class is the composition engine itself), the second
benchmark system (the module inventories below have no slot for it) and
the record-at-a-time scan merge (one read-side merge in ``src/``; the old
one is ``tests/_scan_oracle.py``) and the experiment shell's second ways
to name a policy (factory functions, a factory field on ``GridTask``),
and the run shell's second runners, fan-out, closed loop, report classes
and policy factories (one protocol, one fan-out, two loops, two results),
and the serving stack's per-sample recorder loops, hand-rolled FIFO and
five-helper pump (one ledger, one ``deque``, one replay step), and the
per-layer stats views (``EngineStats``, ``IOStats``, ``CategoryStats``, the
cache's counter properties): the registry is written, a snapshot is read;
and the traffic nothing runs (the YCSB core workloads, the ``latest`` key
distribution and its per-operation generation loop, closed-loop serving,
the WAL switch and the chunk-size knob); and the sharded engine (one
store: no partitioned facade, sharded runner or serve, result folds or
cross-store snapshot aggregation); and the arrival shapes nothing runs
(one Poisson stream into a FIFO queue: no bursty or diurnal processes,
tenants, priority discipline or trace replay); and the engine surface
only tests reached (one compaction pick: no seek compaction, seek budget
or seeded trigger decision; one flush cut: no streaming builder; one way
to name a policy: no dict round trip; one generator loop: no delete
ratio, and no spec scaling); and the faults ``repro crashtest`` does not
inject (one fault injector, crash points and read corruption: no
transient I/O errors, retry policy or separate device stage), with the
last wrappers only tests called (no ``DB.multi_get``, no
``slices_newest_first``) and the serve knob one value used (no
``ServeSpec.backpressure`` and no public ``admission_bound``); and the
write path's forks (one WAL append, one memtable insert: no batched
append or sorted bulk load), the CPU cost knob (no ``CostModel`` or
``LSMConfig.costs``) and the record helpers only tests called; and the
serving queue object (no ``repro.serve.queue``: ``RequestQueue``,
``QueueStats`` and ``Request`` went, the serve loop owns a ``deque`` and
checks its own counts), the Poisson process class (``poisson_arrivals``
draws the stream itself) and the admission exceptions no caller could
receive (``AdmissionError``, ``QueueFullError``, ``BackpressureError``: a
refusal is counted in ``ServeResult``, never raised).

And what is exported is what the repository uses: every name in an
``__all__`` has a user in ``src/``, ``examples/``, ``benchmarks/`` or
``bench/`` besides its own module and the package ``__init__`` files, or
an entry in :data:`ALLOWED` that says why not.  A name only tests need is
imported from its module; one nothing but its own tests called is gone.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import tokenize

import pytest

import repro
from repro.lsm.compaction import CompactionPolicy

#: Every ``repro`` module with an ``__all__`` (``repro`` itself first).
PACKAGES = tuple(
    name
    for name in ("repro", *(info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if info.name != "repro.__main__"))
    if hasattr(importlib.import_module(name), "__all__")
)

#: Where a user of an exported name may live.
USER_TREES = ("src", "examples", "benchmarks", "bench")

#: Exported names with no user outside ``tests/``, and why each stays.
ALLOWED = {
    **dict.fromkeys(
        ("udc_read_amplification", "ldc_read_amplification",
         "optimal_fanout_search", "lsm_write_throughput", "lsm_read_throughput",
         "paper_example_2c3", "compaction_round_bytes", "ldc_round_bytes",
         "write_tail_latency_us", "udc_vs_ldc_tail_ratio"),
        "the analytical model's unclaimed formulas: ROADMAP item 24 turns "
        "each into a claim row or deletes it",
    ),
}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_imports(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ names missing {name!r}"


@pytest.mark.parametrize("package", PACKAGES)
def test_composed_policy_is_the_only_exported_policy_class(package):
    module = importlib.import_module(package)
    policy_classes = {
        name
        for name in module.__all__
        if inspect.isclass(getattr(module, name))
        and issubclass(getattr(module, name), CompactionPolicy)
    }
    assert policy_classes <= {"CompactionPolicy"}
    assert not CompactionPolicy.__subclasses__()


@pytest.mark.parametrize(
    "package, modules",
    [
        ("repro.harness",
         {"experiments", "latency", "report", "runner", "timeseries"}),
        ("repro.lsm.compaction",
         {"base", "columnar", "primitives", "spec"}),
        ("repro.core", {"adaptive", "frozen", "primitives", "slice"}),
        ("repro.lsm",
         {"bloom", "builder", "cache", "compaction", "config", "db", "iterators",
          "keys", "memtable", "record", "sstable", "stats", "version", "wal"}),
        ("repro.obs",
         {"events", "histogram", "registry", "snapshot", "tracer"}),
        ("repro.serve", {"arrivals", "server"}),
    ],
)
def test_module_inventory(package, modules):
    path = importlib.import_module(package).__path__
    assert {info.name for info in pkgutil.iter_modules(path)} == modules


def test_one_read_side_merge():
    """Scans and ``logical_items`` share ``merge_streams``; nothing else is left."""
    from repro.core.slice import Slice
    from repro.lsm import iterators, sstable
    from repro.lsm.cache import BlockCache
    from repro.lsm.memtable import MemTable

    functions = {
        name
        for name, value in vars(iterators).items()
        if inspect.isfunction(value) and value.__module__ == iterators.__name__
    }
    assert functions == {"merge_streams", "unit_windows", "_refill"}
    for name in ("merge_records", "live_records"):
        assert name not in repro.lsm.__all__ and not hasattr(repro.lsm, name)
    assert not hasattr(sstable, "RecordView")
    for owner, gone in (
        (sstable.SSTable, ("records_in_range", "blocks_in_range")),
        (Slice, ("records_in_range", "scan_block_bytes")),
        (MemTable, ("iter_from",)),
        # A charged range is one cache call (the per-block loop is
        # tests/_scan_oracle.window_scan's).
        (BlockCache, ("fetch",)),
        (repro.DB, ("_charge_range_read",)),
    ):
        for name in gone:
            assert not hasattr(owner, name), (owner, name)


def test_one_compaction_merge_over_a_three_part_file():
    """A file is records + key index + size prefix, a merge window
    ``(keys, records, start, stop)``, and ``columnar`` holds one function:
    no seq / size columns, no heap merge beside the pooled sort."""
    from repro.lsm.builder import build_balanced_columns
    from repro.lsm.compaction import columnar
    from repro.lsm.record import KVRecord, put_record
    from repro.lsm.sstable import SSTable

    functions = {
        name
        for name, value in vars(columnar).items()
        if inspect.isfunction(value) and value.__module__ == columnar.__name__
    }
    assert functions == {"merge_windows"}
    for gone in ("seqs", "_seqs", "_sizes"):
        assert not hasattr(SSTable, gone) and gone not in SSTable.__slots__
    for target in (SSTable, SSTable.from_records, build_balanced_columns):
        assert "seqs" not in inspect.signature(target).parameters, target
    assert KVRecord._fields == ("key", "seq", "kind", "value", "size")
    table = SSTable(1, [put_record(b"k", b"v", 1)], 4096, 10)
    assert len(table.columns_window()) == 4


def test_store_constructors_take_no_seed():
    """``seed=`` had no effect since the skip list went (PR 15); workload,
    arrival and crashtest-workload seeds are the live ones."""
    from repro.harness.experiments import GridTask
    from repro.harness.runner import build_db

    for target in (repro.DB, GridTask, build_db):
        assert "seed" not in inspect.signature(target).parameters, target


def test_one_way_to_name_a_policy_in_the_experiment_shell():
    """A grid task's policy is a registry name or a ``PolicySpec`` — what
    every harness entry point resolves — so the shell keeps no factory
    functions, no factory field and no second name for ``LSMConfig``."""
    import dataclasses

    from repro import cli
    from repro.harness import experiments

    second_ways = [
        name for name in vars(experiments) if name.endswith(("_factory", "_config"))
    ]
    assert second_ways == []
    fields = {field.name for field in dataclasses.fields(experiments.GridTask)}
    assert "factory" not in fields and "policy" in fields
    assert "derived" not in {
        field.name for field in dataclasses.fields(experiments.ExperimentOutput)
    }
    assert tuple(experiments.BOTH_POLICIES) == (("UDC", "udc"), ("LDC", "ldc"))
    # ... and the CLI no policy resolver, flash builder, (ops, keys)
    # adapter or keyword-list entry point of its own.
    leftovers = [
        name for name in vars(cli)
        if name.endswith(("_factory", "_cli", "_runner"))
        or name.startswith("_build") or name == "_figure"
    ]
    assert leftovers == []


def test_one_run_shell():
    """One store and a closed loop is only a run: one protocol (build ->
    preload -> drain -> reset), one process fan-out, one policy
    designator, no report class beside the two results and no fold of
    them."""
    import repro.harness
    import repro.obs
    import repro.serve
    from repro import cli
    from repro.faults.crashtest import run_crashtest
    from repro.harness.runner import RunResult, run_workload
    from repro.serve import serve_workload
    from repro.serve.server import ServeResult

    gone = {"ShardTask", "ShardedRunReport", "ShardedServeReport",
            "merge_shard_results", "merge_serve_results", "PolicyFactory",
            "SpecFactory", "resolve_factory", "ShardedDB", "ShardedSnapshot",
            "run_sharded_workload", "run_sharded_serve", "aggregate_snapshots",
            "combined_view", "fold_timelines", "shard_scaling"}
    for package in (repro, repro.harness, repro.harness.runner,
                    repro.harness.experiments, repro.obs, repro.serve, cli):
        assert not gone & set(getattr(package, "__all__", ())), package.__name__
        for name in gone:
            assert not hasattr(package, name), (package.__name__, name)
    assert not gone & set(cli.FIGURES)
    for module in ("repro.shard", "repro.serve.sharded", "repro.obs.aggregate"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    for result in (RunResult, ServeResult):
        for name in ("fold", "shard_results", "partitioner", "num_shards",
                     "combined_metrics", "shard_operations", "workers",
                     "wall_s"):
            assert not hasattr(result, name), (result.__name__, name)
    for target in (run_workload, serve_workload):
        assert "preload" not in inspect.signature(target).parameters, target
    fields = {field.name for field in dataclasses.fields(
        repro.harness.experiments.GridTask)}
    assert not {"preload", "operations"} & fields

    for target in (run_workload, serve_workload, run_crashtest):
        parameters = inspect.signature(target).parameters
        assert "policy" in parameters, target
        assert not {"policy_factory", "policy_name", "partitioner_kind"} & set(
            parameters
        ), target

    fan_outs, resets = [], []
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            where = f"{path.relative_to(root)}:{node.lineno}"
            if name == "ProcessPoolExecutor":
                fan_outs.append(where)
            elif name == "reset_measurements":
                resets.append(where)
    assert [where.split(":")[0] for where in fan_outs] == ["harness/experiments.py"]
    assert [where.split(":")[0] for where in resets] == ["harness/runner.py"]


def test_one_stack_path():
    """The FIFO is a ``deque`` the serve loop owns, a refusal is a count
    rather than an exception, the histogram has no bucket memo, the
    recorders no shard-only query, and the scheduler replays through one
    routine — the replaced replay lives only in ``tests/_pump_oracle.py``."""
    import collections

    import repro.errors
    from repro.harness.latency import LatencyRecorder, LatencyTimeline
    from repro.obs.histogram import LatencyHistogram
    from repro.sched.scheduler import CompactionScheduler
    from repro.serve import arrivals, server

    assert server.deque is collections.deque
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serve.queue")
    for module, gone in (
        (server, ("RequestQueue", "Request")),
        (arrivals, ("PoissonProcess",)),
        (repro.errors, ("AdmissionError", "QueueFullError", "BackpressureError")),
    ):
        for name in gone:
            assert not hasattr(module, name), (module.__name__, name)
    for gone in ("_index_cache", "_INDEX_CACHE_MAX"):
        assert not hasattr(LatencyHistogram(), gone)
        assert gone not in LatencyHistogram.__slots__
    for gone in ("_sum", "_min", "_max"):  # the histogram is the one ledger
        assert not hasattr(LatencyRecorder(), gone)
    assert not hasattr(LatencyRecorder, "streaming_percentiles")
    assert not hasattr(LatencyTimeline, "merge")
    for gone in ("_earliest_runnable", "_next_start", "_run_chunk"):
        assert not hasattr(CompactionScheduler, gone)


def test_one_metrics_ledger():
    """The engine writes registry counters and every reader reads a
    ``MetricsSnapshot``: the per-layer stats views are gone, and each
    derived ratio has exactly one ``def`` under ``src/`` (``RunResult``
    forwards through ``snapshot_view`` properties, not functions)."""
    import repro.lsm
    import repro.lsm.stats
    import repro.ssd
    import repro.ssd.metrics
    from repro.lsm.cache import BlockCache
    from repro.obs.registry import MetricsRegistry
    from repro.obs.snapshot import MetricsSnapshot

    for package in (repro, repro.lsm, repro.ssd, repro.lsm.stats, repro.ssd.metrics):
        for name in ("EngineStats", "IOStats", "CategoryStats"):
            assert not hasattr(package, name), (package.__name__, name)
    # What is left of the two stats modules is names: no class, and the
    # one function that spells a category's three counter keys.
    for module in (repro.lsm.stats, repro.ssd.metrics):
        assert not inspect.getmembers(module, inspect.isclass), module.__name__
    assert [name for name, _ in inspect.getmembers(
        repro.ssd.metrics, inspect.isfunction)] == ["category_keys"]

    db = repro.DB(config=repro.LSMConfig(block_cache_bytes=4096))
    for name in ("engine_stats", "stats", "write_amplification"):
        assert not hasattr(db, name), name
    for name in ("stats", "metrics"):
        assert not hasattr(db.device, name), name
    for name in ("hits", "misses", "evictions", "evicted_bytes", "hit_ratio"):
        assert not hasattr(BlockCache, name), name
    for name in ("set_counter", "sum_matching", "component", "on_reset"):
        assert not hasattr(MetricsRegistry, name), name
    assert MetricsRegistry.__slots__ == ("_counters", "_gauges")

    derived = ("write_amplification", "host_bytes_written",
               "compaction_bytes_total", "activity_share", "cache_hit_ratio")
    defined = {name: [] for name in derived}
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(str(path.relative_to(root)))
    assert defined == {name: ["obs/snapshot.py"] for name in derived}
    for name in derived:
        assert hasattr(MetricsSnapshot, name), name


def test_cli_surface_is_what_it_was():
    """The subcommands and flags, pinned: adding or dropping one is an edit
    here (``cache``, ``frozen`` and ``btree`` joined as figures;
    ``shard_scaling``, ``--shards`` and ``--partitioner`` left with the
    sharded engine; ``--arrival``, ``--tenants`` and ``--discipline`` with
    the arrival shapes, tenants and priority queue)."""
    from repro import cli

    assert list(cli.EXPERIMENTS) == [
        "list", "fig01", "fig01s", "fig01_open_loop", "tab1", "fig07", "fig08",
        "fig09", "fig10a", "fig10b", "fig10c", "fig11", "fig12ad", "fig12be",
        "fig12cf", "fig13", "fig14", "fig15", "adaptive", "tiered", "asymmetry",
        "cache", "frozen", "btree", "paper_scale",
        "fig_device_wa", "describe", "trace", "run", "serve", "crashtest",
        "explore",
    ]
    flags = sorted(
        option
        for action in cli.build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    )
    assert flags == [
        "--bg-threads", "--corrupt", "--every",
        "--flash", "--flash-gc", "--flash-logical-mib", "--flash-op",
        "--include-io", "--keys", "--mixes", "--ops",
        "--policies", "--policy", "--profiles", "--queue-depth", "--rate",
        "--seed", "--slo-us", "--slowdown-l0",
        "--stop-l0", "--trace-out", "--value-bytes", "--workers",
    ]
    assert not {"--shards", "--partitioner", "--arrival", "--tenants",
                "--discipline"} & set(flags)


def test_every_sized_experiment_is_a_figure():
    """``EXPERIMENTS`` is ``FIGURES`` plus seven tools, and the device-WA
    figure is one cell of the explorer's sweep: no copy of its rows, its
    report or its handler is left."""
    import inspect

    from repro import cli
    from repro.harness import experiments

    assert set(cli.EXPERIMENTS) - set(cli.FIGURES) == {
        "list", "describe", "trace", "run", "serve", "crashtest", "explore",
    }
    for name in ("DesignPoint", "format_device_wa_report"):
        assert not hasattr(experiments, name), name
    for name in ("_run_device_wa", "_run_shard_scaling", "_run_paper_scale"):
        assert not hasattr(cli, name), name
    signature = inspect.signature(experiments.fig_device_wa)
    assert list(signature.parameters) == ["ops", "key_space"]


def test_unset_experiment_knobs_are_constants():
    """An experiment takes its size (and the knobs a caller sets), not its
    protocol: buckets, loads, SLOs, margins and seeds are constants."""
    import inspect

    from repro import workload
    from repro.harness import experiments

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(experiments.fig01_latency_fluctuation) == ["ops", "key_space"]
    assert params(experiments.fig01_scheduled_interference) == [
        "ops", "key_space", "bg_threads"]
    assert params(experiments.fig01_open_loop) == ["ops", "key_space", "bg_threads"]
    assert params(experiments.fig08_tail_latency) == ["ops", "key_space"]
    assert params(experiments.fig14_scalability) == ["request_counts"]
    assert params(experiments.fig15_space) == ["request_counts"]
    assert "config" not in params(experiments.design_space)
    assert "size_margin" not in params(experiments.sized_flash_spec)
    assert not hasattr(workload, "ycsb_f")


def test_only_the_traffic_that_runs():
    """No workload, figure, tool or example reached these inputs and modes:
    the generator has one loop over two key distributions, a closed loop is
    measured only by ``run_workload``, the WAL is always on, background
    work is chunked at one block, and a serve run is one Poisson stream
    into a FIFO queue: one ledger, no tenants, no trace replay."""
    from dataclasses import fields

    import repro.serve
    from repro import errors, workload
    from repro.errors import ConfigError, WorkloadError
    from repro.serve import ServeSpec, arrivals, server
    from repro.serve.server import ServeResult
    from repro.workload import keydist, spec, ycsb

    gone = {"Tenant", "TenantServeStats", "OnOffProcess", "DiurnalProcess",
            "DEFAULT_DIURNAL_PROFILE", "ArrivalProcess", "ARRIVAL_KINDS",
            "Arrival", "make_arrival_process", "split_rate",
            "merge_tenant_arrivals", "DISCIPLINES", "check_discipline",
            "_tenant_stats", "_serve_result", "record_trace", "write_trace",
            "read_trace", "replay", "_push_priority", "_take_priority",
            "discipline"}
    for module in (repro, repro.serve, arrivals, server, workload):
        assert not gone & set(getattr(module, "__all__", ())), module.__name__
        for name in gone:
            assert not hasattr(module, name), (module.__name__, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.workload.trace")
    assert [field.name for field in fields(ServeSpec)] == [
        "arrival", "rate_ops_s", "queue_depth", "slo_us", "seed"]
    for name in ("tenant_stats", "discipline", "tenant_metrics"):
        assert not hasattr(ServeResult, name), name

    for name in ("ycsb_a", "ycsb_b", "ycsb_c", "ycsb_d", "ycsb_e"):
        assert not hasattr(workload, name) and not hasattr(ycsb, name), name
    for module in (workload, keydist, spec):
        assert not hasattr(module, "LatestKeys"), module.__name__
        assert not hasattr(module, "DIST_LATEST"), module.__name__
    assert not hasattr(errors, "RecoveryError")
    assert not hasattr(repro, "RecoveryError")
    config_fields = {field.name for field in fields(repro.LSMConfig)}
    assert not {"wal_enabled", "sched_chunk_blocks"} & config_fields
    with pytest.raises(WorkloadError, match="latest"):
        workload.rwb(distribution="latest")
    with pytest.raises(ConfigError, match="known: poisson$"):
        ServeSpec(arrival="closed")
    assert not hasattr(workload.WorkloadGenerator, "_operations_scalar")


def test_only_the_engine_surface_that_runs():
    """No claim, figure, workload or example reached these: LevelDB's seek
    compaction (a trigger fires a bare level, a selector takes only the
    level), the streaming builder beside the flush cut, the spec's dict
    round trip, the generator's delete ratio and its second loop, and
    spec scaling."""
    from dataclasses import fields

    import repro.core.primitives  # registers the LDC selector
    import repro.lsm
    import repro.lsm.compaction
    from repro.errors import ConfigError
    from repro.lsm import builder
    from repro.lsm.compaction import primitives, spec
    from repro.lsm.sstable import SSTable
    from repro.workload import WorkloadSpec

    for module, name in ((primitives, "TriggerDecision"),
                         (builder, "SSTableBuilder"), (builder, "build_tables")):
        assert not hasattr(module, name), (module.__name__, name)
        for package in (repro, repro.lsm, repro.lsm.compaction):
            assert name not in package.__all__ and not hasattr(package, name)
    assert "allowed_seeks" not in SSTable.__slots__
    assert "delete_ratio" not in {field.name for field in fields(WorkloadSpec)}
    assert not hasattr(WorkloadSpec, "scaled")
    for name in ("to_dict", "from_dict"):
        assert not hasattr(spec.PolicySpec, name), name
    assert list(inspect.signature(spec.register_policy).parameters) == ["spec"]
    for name in ("_spends_seeks", "note_seek_exhausted"):
        assert not hasattr(repro.DB(), name)
        assert not hasattr(CompactionPolicy, name)
    for name, cls in primitives.TRIGGERS.items():
        assert not hasattr(cls, "honor_seeks"), name
    for name, cls in primitives.SELECTORS.items():
        assert list(inspect.signature(cls.select).parameters) == [
            "self", "level"], name
    with pytest.raises(ConfigError, match="honor_seeks"):
        spec.get_spec("udc").derive(honor_seeks=True).build()


def exported_names() -> dict:
    """Every name in any ``repro`` module's ``__all__``, with its modules."""
    exported = {}
    for package in PACKAGES:
        for name in importlib.import_module(package).__all__:
            exported.setdefault(name, []).append(package)
    return exported


def home_file(package: str, name: str) -> pathlib.Path:
    """The module that binds ``name`` for ``package``: the package
    ``__init__`` files' ``from ... import`` chain, followed to its end."""
    path = pathlib.Path(importlib.import_module(package).__file__)
    while path.name == "__init__.py":
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and name in {
                alias.asname or alias.name for alias in node.names
            }:
                package = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), package)
                if node.module is None:  # ``from . import <submodule>``
                    package += "." + name
                break
        else:
            return path  # bound by the ``__init__`` itself
        path = pathlib.Path(importlib.import_module(package).__file__)
    return path


def identifiers_by_file() -> dict:
    """The identifiers each Python file of the user trees spells (names and
    attributes; strings and comments do not count), package ``__init__``
    files left out."""
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    found = {}
    for tree in USER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            if path.name != "__init__.py":
                with open(path, encoding="utf-8") as handle:
                    found[path] = {
                        token.string for token in tokenize.generate_tokens(handle.readline)
                        if token.type == tokenize.NAME
                    }
    return found


def unused_exports() -> dict:
    """Each exported name no file of the user trees spells, bar its own
    module, with the packages that export it."""
    files = identifiers_by_file()
    unused = {}
    for name, packages in exported_names().items():
        homes = {home_file(package, name).resolve() for package in packages}
        if not any(name in names for path, names in files.items()
                   if path not in homes):
            unused[name] = packages
    return unused


def test_every_exported_name_has_a_user_outside_tests():
    """A name only tests import is imported from its module, not exported;
    one nothing but its own tests calls is deleted with them."""
    assert all(reason.strip() for reason in ALLOWED.values())
    unused = unused_exports()
    assert {name: packages for name, packages in unused.items()
            if name not in ALLOWED} == {}
    assert set(ALLOWED) <= set(unused), "a used name needs no ALLOWED entry"


def test_only_the_faults_crashtest_injects():
    """``repro crashtest`` injects crash points (torn WAL tails included)
    and read corruption, so ``repro.faults`` is one injector for those
    two: no transient-error family with its retry policy and error
    types, no stage class beside the plan.  Nothing but tests called
    ``DB.multi_get`` or ``slices_newest_first``, and every serve run gated
    writes, so neither those wrappers nor ``ServeSpec.backpressure`` and
    the public ``admission_bound`` are left."""
    import repro.faults.crashtest  # noqa: F401  (walked below too)
    from repro import core, errors, faults, obs, serve
    from repro.core import slice as slice_module
    from repro.faults import plan
    from repro.obs import events
    from repro.serve import server

    homes = {
        "RetryPolicy": (faults, plan),
        "FaultStage": (faults, plan),
        "TransientIOError": (errors, repro),
        "PersistentIOError": (errors, repro),
        "EV_FAULT_TRANSIENT": (events, obs, repro),
        "admission_bound": (serve, server),
        "_gated_kinds": (server,),
        "slices_newest_first": (core, slice_module),
    }
    for name, modules in homes.items():
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
    exported = exported_names()
    for name in (*homes, "multi_get"):
        assert name not in exported, (name, exported.get(name))
    assert "fault_transient" not in events.ALL_EVENT_KINDS
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.faults.device")
    assert not hasattr(repro.DB, "multi_get")
    assert not hasattr(server.ServeSpec(), "backpressure")
    assert list(inspect.signature(plan.FaultPlan).parameters) == []
    for name in ("transient", "take_transient", "pending_transients",
                 "is_exhausted", "retry", "take_crash", "take_corruption"):
        assert not hasattr(plan.FaultPlan(), name), name


def test_one_write_path():
    """A put, a delete, a batch and WAL replay enter the store through one
    routine: the log has one append and the memtable one insert, so no
    batched append or sorted bulk load is left.  The CPU costs are module
    constants, not a config knob every store left at its default, and the
    record helpers only tests called are gone (the engine dedups in
    ``merge_windows``)."""
    import repro.lsm
    from repro.lsm import config, memtable, record, wal

    homes = {
        "append_batch": (wal.WriteAheadLog,),
        "add_sorted_batch": (memtable.MemTable,),
        "CostModel": (config, repro.lsm, repro),
        "newest_wins": (record, repro.lsm),
        "drop_tombstones": (record, repro.lsm),
        "visible_value": (record, repro.lsm),
    }
    for name, modules in homes.items():
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
    exported = exported_names()
    for name in homes:
        assert name not in exported, (name, exported[name])
    assert "costs" not in {field.name for field in dataclasses.fields(config.LSMConfig)}
    for routine in (wal.WriteAheadLog.append, repro.DB._apply_write):
        assert list(inspect.signature(routine).parameters) == [
            "self", "records", "nbytes"], routine
