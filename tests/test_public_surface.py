"""The public surface after the PR 17, 18, 19, 22, 23 and 24 deletions.

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
cache's counter properties): the registry is written, a snapshot is read.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro
from repro.lsm.compaction import CompactionPolicy

PACKAGES = ("repro", "repro.lsm", "repro.lsm.compaction", "repro.core",
            "repro.harness", "repro.shard", "repro.serve")


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
        ("repro.shard", {"db", "partition", "runner"}),
        ("repro.serve", {"arrivals", "queue", "server", "sharded"}),
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
    from repro.shard.runner import run_sharded_workload

    for target in (repro.DB, repro.ShardedDB, GridTask, build_db,
                   run_sharded_workload):
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
    """A sharded run is a run and a closed-loop serve is a run: one
    protocol (build -> preload -> drain -> reset), one process fan-out,
    one policy designator, and no report class beside the two results."""
    import repro.harness
    import repro.serve
    import repro.shard
    from repro.faults.crashtest import run_crashtest
    from repro.harness.runner import run_workload
    from repro.serve import run_sharded_serve, serve_workload
    from repro.shard.runner import run_sharded_workload

    gone = {"ShardTask", "ShardedRunReport", "ShardedServeReport",
            "merge_shard_results", "merge_serve_results", "PolicyFactory",
            "SpecFactory", "resolve_factory"}
    for package in (repro, repro.harness, repro.shard, repro.serve):
        assert not gone & set(package.__all__), package.__name__
        for name in gone:
            assert not hasattr(package, name), (package.__name__, name)

    for target in (repro.ShardedDB, run_workload, run_sharded_workload,
                   serve_workload, run_sharded_serve, run_crashtest):
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
    # prepare_db's, and ShardedDB.reset_measurements forwarding to its shards.
    assert [where.split(":")[0] for where in resets] == [
        "harness/runner.py", "shard/db.py",
    ]


def test_one_stack_path():
    """A request is a tuple row, the FIFO a ``deque``, the histogram has no
    bucket memo, and the scheduler replays through one routine — the
    replaced loops live only in ``tests/_recorder_oracle.py`` /
    ``tests/_pump_oracle.py``."""
    import collections
    import dataclasses

    from repro.harness.latency import LatencyRecorder
    from repro.obs.histogram import LatencyHistogram
    from repro.sched.scheduler import CompactionScheduler
    from repro.serve import Request, RequestQueue

    assert not dataclasses.is_dataclass(Request) and issubclass(Request, tuple)
    assert Request._fields == (
        "seq", "arrival_us", "tenant_index", "operation", "priority")
    assert Request._field_defaults == {"priority": 0}
    assert Request(seq=1, arrival_us=2.0, tenant_index=0, operation=None) == (
        1, 2.0, 0, None, 0)
    assert isinstance(RequestQueue(4).waiting, collections.deque)
    assert not hasattr(RequestQueue(4), "_fifo_head")
    for gone in ("_index_cache", "_INDEX_CACHE_MAX"):
        assert not hasattr(LatencyHistogram(), gone)
        assert gone not in LatencyHistogram.__slots__
    for gone in ("_sum", "_min", "_max"):  # the histogram is the one ledger
        assert not hasattr(LatencyRecorder(), gone)
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
    """The rewrite added and dropped no subcommand and no flag."""
    from repro import cli

    assert list(cli.EXPERIMENTS) == [
        "list", "fig01", "fig01s", "fig01_open_loop", "tab1", "fig07", "fig08",
        "fig09", "fig10a", "fig10b", "fig10c", "fig11", "fig12ad", "fig12be",
        "fig12cf", "fig13", "fig14", "fig15", "adaptive", "tiered", "asymmetry",
        "shard_scaling", "paper_scale", "fig_device_wa", "describe", "trace",
        "run", "serve", "crashtest", "explore",
    ]
    flags = sorted(
        option
        for action in cli.build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    )
    assert flags == [
        "--arrival", "--bg-threads", "--corrupt", "--discipline", "--every",
        "--flash", "--flash-gc", "--flash-logical-mib", "--flash-op",
        "--include-io", "--keys", "--mixes", "--ops", "--partitioner",
        "--policies", "--policy", "--profiles", "--queue-depth", "--rate",
        "--seed", "--shards", "--slo-us", "--slowdown-l0",
        "--stop-l0", "--tenants", "--trace-out", "--value-bytes", "--workers",
    ]


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
