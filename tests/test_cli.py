"""Tests for the command-line interface."""

import json
import re

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, build_parser, main
from repro.errors import EngineError
from repro.harness import experiments

from .pins import check

TINY = ["--ops", "1200", "--keys", "400"]

#: Every subcommand line ``test_run_tiny`` pins (sized by ``_argv``):
#: each name in ``EXPERIMENTS`` plus the flag combinations that switch a
#: handler's report.  The pin is its stdout with the host-time cells
#: masked.
COMMANDS = [
    "list",
    "fig01",
    "fig01s",
    "fig01_open_loop",
    "tab1",
    "fig07",
    "fig08",
    "fig09",
    "fig10a",
    "fig10b",
    "fig10c",
    "fig11",
    "fig12ad",
    "fig12be",
    "fig12cf",
    "fig13",
    "fig14",
    "fig15",
    "adaptive",
    "tiered",
    "asymmetry",
    "cache",
    "frozen",
    "btree",
    "describe",
    "paper_scale",
    "fig_device_wa",
    "run",
    "serve",
    "crashtest --every 25",
    "explore",
    "explore --policies udc,ldc --mixes RWB",
    "explore --policies udc,ldc --mixes RWB --flash",
    "run RWB --flash",
    "trace WO",
    "run RWB --bg-threads 1",
]
PIN_CASES = [f"cli/{command}" for command in COMMANDS]

_HOST_COLUMNS = {"wall s", "cpu s"}
_HOST_JSON = ("fill_wall_s", "fill_cpu_s", "read_wall_s", "read_cpu_s",
              "wall_s", "ops_per_sec")
_RULE = re.compile(r"-+(  -+)*")
_cells = re.compile(r"\s{2,}").split


def _argv(command):
    size = ["--ops", "500"] if command == "paper_scale" else TINY
    return command.split() + size


def _mask_host_cells(out):
    """Blank what depends on the host: the ``wall s`` / ``cpu s`` columns
    and ``paper_scale``'s timing fields.  A table
    holding such a cell is re-joined unpadded (a time's width moves the
    column); everything else passes through byte for byte."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("{"):
            data = json.loads(line)
            data.update(dict.fromkeys(_HOST_JSON, 0))
            lines[i] = json.dumps(data, sort_keys=True)
        if i == 0 or not _RULE.fullmatch(line):
            continue
        header = _cells(lines[i - 1].strip())
        end = i + 1
        while end < len(lines) and len(_cells(lines[end].strip())) == len(header):
            end += 1
        rows = [_cells(row.strip()) for row in lines[i + 1:end]]
        if not _HOST_COLUMNS & set(header):
            continue
        lines[i - 1], lines[i] = "|".join(header), ""
        for k, row in enumerate(rows):
            lines[i + 1 + k] = "|".join(
                "*" if name in _HOST_COLUMNS else cell
                for name, cell in zip(header, row)
            )
    return "\n".join(lines) + "\n"


class TestParser:
    def test_defaults(self):
        """--ops/--keys resolve per subcommand in main(); unset here."""
        args = build_parser().parse_args(["fig08"])
        assert args.experiment == "fig08"
        assert args.ops is None
        assert args.keys is None

    def test_crashtest_args(self):
        args = build_parser().parse_args(
            ["crashtest", "--policy", "ldc", "--every", "25"]
        )
        assert args.experiment == "crashtest"
        assert args.policy == "ldc"
        assert args.every == 25
        assert args.corrupt == 25

    def test_overrides(self):
        args = build_parser().parse_args(["fig14", "--ops", "500", "--keys", "100"])
        assert args.ops == 500
        assert args.keys == 100


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig01", "fig08", "fig15", "tiered"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list_prints_exactly_what_main_dispatches(self, capsys, monkeypatch):
        """One table: ``repro list``, ``main`` and the unknown-name error
        all read ``EXPERIMENTS``, so no subcommand can be runnable but
        unlisted (or listed but unknown)."""
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert sorted(listed) == sorted(EXPERIMENTS)
        assert {"run", "serve", "trace", "crashtest", "explore", "paper_scale",
                "fig_device_wa"} <= set(listed)

        called = []
        monkeypatch.setattr(
            cli,
            "EXPERIMENTS",
            {name: lambda args, name=name: called.append(name) or 0
             for name in listed},
        )
        for name in listed:
            assert main([name]) == 0
        assert called == listed

    def test_retired_bench_subcommand_exits_two_naming_every_subcommand(
        self, capsys
    ):
        assert main(["bench"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'bench'" in err
        known = err.split("known: ", 1)[1].replace(",", " ").split()
        assert known == list(EXPERIMENTS)

    def test_registry_covers_every_figure(self):
        expected = {
            "fig01", "tab1", "fig07", "fig08", "fig09", "fig10a", "fig10b",
            "fig10c", "fig11", "fig12ad", "fig12be", "fig12cf", "fig13",
            "fig14", "fig15",
        }
        assert expected <= set(EXPERIMENTS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_run_tiny(self, capsys, command):
        """Each CLI path runs end-to-end at tiny scale and prints, byte for
        byte, what it printed before the shell was rewritten."""
        assert main(_argv(command)) == 0
        out = _mask_host_cells(capsys.readouterr().out)
        check(f"cli/{command}", out)

    def test_every_subcommand_has_a_golden(self):
        assert {command.split()[0] for command in COMMANDS} == set(EXPERIMENTS)

    def test_fig13_runs(self, capsys):
        assert main(["fig13", "--ops", "800", "--keys", "300"]) == 0
        assert "bits/key" in capsys.readouterr().out

    def test_counts_runner_path(self, capsys):
        """fig14/fig15 dispatch through the request-count sweep runner."""
        assert main(["fig15", "--ops", "900", "--keys", "300"]) == 0
        out = capsys.readouterr().out
        assert "space MiB" in out and "LDC" in out

    def test_matrix_runner_path(self, capsys):
        assert main(["fig09", "--ops", "900", "--keys", "300"]) == 0
        out = capsys.readouterr().out
        assert "workload" in out and "p99.9" in out


class TestWorkers:
    def test_workers_hold_for_one_call_only(self, monkeypatch):
        """``--workers`` reaches the handler and is gone when ``main`` returns
        (it used to stay set for the rest of the process)."""
        seen = []
        monkeypatch.setitem(
            cli.EXPERIMENTS, "tab1",
            lambda args: seen.append(experiments.default_workers()),
        )
        assert experiments.default_workers() is None
        assert main(["tab1", "--workers", "3"]) == 0
        assert seen == [3]
        assert experiments.default_workers() is None

    @pytest.mark.parametrize("command", ["fig08", "run RWB"])
    def test_nonpositive_workers_exit_two(self, capsys, command):
        assert main(command.split() + ["--workers", "0"] + TINY) == 2
        assert "worker count must be >= 1" in capsys.readouterr().err
        assert experiments.default_workers() is None


class TestErrorTyping:
    @pytest.mark.parametrize(
        "command",
        [
            "run RWB --flash --flash-logical-mib 1",
            "serve RWB --seed -1",
            "serve RWB --queue-depth 0",
            "explore --profiles nope --mixes RWB --policies udc",
            "explore --mixes NOPE",
            "explore --flash --flash-op -0.5 --mixes RWB --policies udc",
        ],
    )
    def test_misconfiguration_exits_two_with_a_message(self, capsys, command):
        assert main(command.split() + ["--ops", "3000", "--keys", "800"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command, message",
        [
            ("run RWB --ops 0", "num_operations must be positive"),
            ("run RWB --keys 0", "key_space must be positive"),
            ("describe --keys 0", "key_space must be positive"),
            ("fig10a --ops 0", "num_operations must be positive"),
            ("paper_scale --ops 0", "num_operations must be positive"),
            ("crashtest --every 0", "stride must be positive"),
            ("crashtest --keys 0", "key_space must be positive"),
            ("crashtest --ops 0", "num_operations must be positive"),
            ("describe --ops -5", "num_operations must be positive"),
            # No store this small flushes, so no block is ever read.
            ("crashtest --ops 500 --keys 60", "performed no reads"),
        ],
    )
    def test_a_mis_sized_run_exits_two_with_a_message(
        self, capsys, command, message
    ):
        assert main(command.split()) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_a_crashtest_that_cannot_seed_corruption_stops_before_its_sweep(
        self, capsys
    ):
        """The corruption probe runs first: no crash point is swept, and no
        sweep summary is printed, for a workload that reads no block."""
        assert main("crashtest --ops 500 --keys 60".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "performed no reads" in captured.err
        assert "crash points:" not in captured.err

    def test_a_crashtest_with_no_stride_stops_before_either_pass(
        self, capsys, monkeypatch
    ):
        """``--every 0`` is refused before the corruption probe runs."""

        def probe(*args, **kwargs):
            raise AssertionError("the corruption probe ran")

        monkeypatch.setattr(cli.crashtest, "run_corruption_test", probe)
        assert main("crashtest --every 0".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stride must be positive" in captured.err

    @pytest.mark.parametrize(
        "command, entry",
        [("run RWB", "run_workload"), ("serve RWB", "serve_workload")],
    )
    def test_an_engine_bug_keeps_its_traceback(self, monkeypatch, command, entry):
        """Only ``ConfigError`` / ``FlashFullError`` / ``WorkloadError`` are
        usage errors."""

        def broken(*args, **kwargs):
            raise EngineError("invariant violated")

        monkeypatch.setattr(cli, entry, broken)
        with pytest.raises(EngineError):
            main(command.split() + TINY)


class TestFlashCLI:
    def test_flash_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "RWB",
                "--flash",
                "--flash-op",
                "0.28",
                "--flash-gc",
                "cost_benefit",
                "--flash-logical-mib",
                "4",
            ]
        )
        assert args.flash
        assert args.flash_op == 0.28
        assert args.flash_gc == "cost_benefit"
        assert args.flash_logical_mib == 4.0
        assert build_parser().parse_args(["crashtest", "--flash"]).flash
        assert not build_parser().parse_args(["run", "RWB"]).flash

    def test_run_flash_tiny(self, capsys):
        assert main(["run", "RWB", "--flash", "--ops", "1500", "--keys", "400"]) == 0
        out = capsys.readouterr().out
        assert "flash:" in out and "OP=" in out
        assert "device write amp" in out
        assert "total write amp" in out
        assert "blocks erased" in out

    def test_fig_device_wa_tiny(self, capsys):
        assert main(["fig_device_wa", "--ops", "1500", "--keys", "400"]) == 0
        out = capsys.readouterr().out
        assert "total WA" in out
        assert "lowest total WA" in out
        assert "ldc" in out and "udc" in out

    def test_fig_device_wa_listed(self, capsys):
        assert main(["list"]) == 0
        assert "fig_device_wa" in capsys.readouterr().out

    def test_explore_flash_tiny(self, capsys):
        assert (
            main(
                [
                    "explore",
                    "--flash",
                    "--policies",
                    "udc,ldc",
                    "--mixes",
                    "RWB",
                    "--ops",
                    "1200",
                    "--keys",
                    "400",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dev WA" in out
        assert "lowest total WA" in out


class TestServeCLI:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "RWB", "--rate", "9000", "--slo-us", "500",
                "--queue-depth", "32", "--bg-threads", "2",
            ]
        )
        assert args.experiment == "serve"
        assert args.workload == "RWB"
        assert args.rate == 9000.0
        assert args.slo_us == 500.0
        assert args.queue_depth == 32
        assert args.bg_threads == 2

    def test_serve_runs_tiny(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "1200", "--keys", "400",
                    "--rate", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serve: workload=RWB" in out
        assert "mean wait us" in out
        assert "total p99.9 us" in out
        assert "SLO violation rate" in out

    def test_serve_unknown_workload_errors(self, capsys):
        assert main(["serve", "NOPE", "--ops", "500", "--keys", "200"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_fig01_open_loop_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01_open_loop" in out
        assert "serve" in out

    def test_fig01_open_loop_runs_tiny(self, capsys):
        assert main(["fig01_open_loop", "--ops", "1500", "--keys", "500"]) == 0
        out = capsys.readouterr().out
        assert "fig01_open_loop" in out
        assert "UDC knee" in out
        assert "open-loop claim" in out


class TestPaperScale:
    def test_reduced_run_reports_every_field(self):
        from repro.harness.experiments import paper_scale

        out = paper_scale(ops=500)
        assert out["ops"] == 1_000  # fill + read phases
        assert set(out) == {
            "ops", "wall_s", "ops_per_sec", "latency_sample_stride",
            "write_amplification",
            "fill_wall_s", "fill_cpu_s", "fill_sim_throughput_ops_s", "fill_p99_us",
            "read_wall_s", "read_cpu_s", "read_sim_throughput_ops_s", "read_p99_us",
        }
        assert out["wall_s"] == out["fill_wall_s"] + out["read_wall_s"]
        assert out["write_amplification"] > 1.0
        assert out["fill_sim_throughput_ops_s"] > 0
        assert out["read_sim_throughput_ops_s"] > 0

    def test_cli_prints_a_parseable_last_line(self, capsys):
        assert main(["paper_scale", "--ops", "500"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("paper_scale")
        out = json.loads(lines[-1])
        assert out["ops"] == 1_000
        assert out["fill_cpu_s"] >= 0 and out["read_cpu_s"] >= 0

    def test_default_size_is_the_paper_scale(self, monkeypatch, capsys):
        """Without ``--ops`` the subcommand asks for 5M ops per phase."""
        from repro.harness import experiments

        asked = []
        real = experiments.paper_scale
        monkeypatch.setattr(
            experiments,
            "paper_scale",
            lambda ops: asked.append(ops) or real(ops=200),
        )
        assert main(["paper_scale"]) == 0
        assert asked == [5_000_000]


class TestRunCli:
    def test_default_workload_is_rwb(self, capsys) -> None:
        assert main(["run", "--ops", "600", "--keys", "200"]) == 0
        assert "workload=RWB" in capsys.readouterr().out

    def test_unknown_workload_exits_two(self, capsys) -> None:
        assert main(["run", "NOPE"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_listed(self, capsys) -> None:
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "run" in out.splitlines()
