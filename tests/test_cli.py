"""Tests for the command-line interface."""

import hashlib
import json
import re

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, build_parser, main
from repro.errors import EngineError
from repro.harness import experiments

TINY = ["--ops", "1200", "--keys", "400"]

#: Subcommand line (sized by ``_argv``) -> SHA-256 of its stdout with the
#: host-time cells masked, captured on PR 18's ``src/`` before the
#: experiment shell was rewritten: every name in ``EXPERIMENTS`` plus the
#: flag combinations that switch a handler's report.  ``fig01s`` and
#: ``run RWB --bg-threads 1`` were re-pinned when memtable flushes moved
#: onto the scheduler's flush lane: their writes stop paying the flush.
#: Every line that runs LDC was re-pinned when an LDC get began to stop at
#: the newest linked slice that holds the key: only LDC rows moved.
#: ``list`` was re-pinned when ``shard_scaling``, ``paper_scale`` and
#: ``fig_device_wa`` joined ``FIGURES``: the same names, in a new order.
GOLDEN_STDOUT = {
    "list":
        "36e2bab2d6f9e83c6f22a8bf7a0296b0e2e74d4fdcec7d69e8528b3791be8ed1",
    "fig01":
        "30dcb5c1159eb5253fcffdca2e1123203ee5820df65361c3378dcbbe05daa0bc",
    "fig01s":
        "de5d372c9e415c9c762bbada2b091603fa85c40bdd69a5d5cbff87d2118b7ace",
    "fig01_open_loop":
        "ef6813fe189df37b2d6d954cc0dc2f11971de5e9d156b89945f3fa39ac632480",
    "tab1":
        "0a21b23d08a35410c2c2a6ecbd8ab01161668044eee2600a55e26df5203b9980",
    "fig07":
        "e065bf88926aeadb5a15bffdb28f6f216511ffe9cc7962dd920a93d255db27e0",
    "fig08":
        "fc2312554382185be3efb986f3cf6ed3cf999980492c441ed71de803eae83043",
    "fig09":
        "951c1a78e2709f24b4619667ca034986951cb07acf92e13864537eb3b9de4cb5",
    "fig10a":
        "d31f99cd4f91a84073fde35de49b2295ad4dabe7d96ce095f3606a207de05791",
    "fig10b":
        "48bdcb62381a3dfa1c5d024468c733ba92a1106f825f61bad46f21de44c56d9f",
    "fig10c":
        "be931b2f4b076887bf0d238338515e7d98d8b83975c9d4b73ecd4882791f57c9",
    "fig11":
        "541799792c32c704b3a4c01e48cfab0d1f60718a6862d9bc1fd9a476eee9a143",
    "fig12ad":
        "764f63c6855667371c469e83ee5f3886d352f296213fd3d64e26a7f28318b7d8",
    "fig12be":
        "3afdc6c0652c94f4d622094edcf92904b1bd56dfee2436addfb9950bc354133d",
    "fig12cf":
        "686ec3bc1e28a9dee611d73d8f29cd2bbf96ff89a02bfb84c1a835e81ee0c7d6",
    "fig13":
        "404c97d157a557ac4a5cf9f7f6a9015578ac0c7d88da84cd832bcfb4d0ed4bc4",
    "fig14":
        "05f0fd38485bc843cd01f264c91f036c357067b2cd723c29c8b4c1433d6bde12",
    "fig15":
        "0411492f7ab8fb12b83e92f57c353115b0d4a10081dcf0c07195f13a9e470a2e",
    "adaptive":
        "851bfce19cc671723e8ce292dc618c6f1b76da9a0098813b619a7efe020d9cbc",
    "tiered":
        "b8ec1034e4d3a8e17dac019762ba593b5a373a0b86b7a27d9aa5d532db9c838b",
    "asymmetry":
        "1f6d6383ceee75b2f01f9ea18c9de34e180710a438d3b964201ca83917da0cc7",
    "shard_scaling":
        "3a999e773221e07e4521d580794c2d8ed104ab116c0b5eeab911eddf9859b411",
    "describe":
        "e0fdc9e0411addd3f7eaa481394e0cec539f9b721f7103de5bb43e6878f52b1e",
    "paper_scale":
        "26f7094be321f54371f1a5d29b550cdb140cab130d730fd7e11d9449cf4035f0",
    "fig_device_wa":
        "9d0c92fc03d936e3fef2ed6bcd72d26695ef1d2d600526361198dfa460e148fb",
    "run":
        "e21706e11d996b06b2f5d16d0b77ef4102a9591b90b9c4ed1ce1da26ae7036ea",
    "serve":
        "53340d75d781d16c8ca164cc586c08a2ba67726629b96626e78254c984099a40",
    "crashtest --every 25":
        "6f18dcc78937d000e9341490b9dac9182207342d970f8caf6e1e11e411256e95",
    "explore":
        "bdd2c6316062413a05fa0b795f095b1d56c1c0282b22d28f4587ce0f2ae3b9a5",
    "explore --policies udc,ldc --mixes RWB":
        "131bda4e7a37099ddce8942ed6db185928b91592f530823180c41edfb0a48cba",
    "explore --policies udc,ldc --mixes RWB --flash":
        "c5325e551fe813ad9ab8fc4a681b8fc4fb4e45cd2c72e85eb54825a747c3016a",
    "serve RWB --tenants 2":
        "3e0630e318e06bb0c26e38e128d3d51e9d8c1c249a08326b2769e8fa01f54d6b",
    "serve RWB --shards 2":
        "9a6158201dac652a14b77a4e23ca2f7039395853803d03fc09bef0f456d40b31",
    "run RWB --shards 2 --flash":
        "81dcfb47679ee767b7375face564fd17f7432328b27e53fa83fbbb7fa56e0266",
    "trace WO":
        "bd287b9333387697311d1822d2c58bb040f6e0a43df2484791e397d60905c469",
    # Captured on PR 20's ``src/`` before the four runners became one shell.
    "serve RWB --arrival closed":
        "89fb38771909f652075db2581e78962f6a9c2998ea5dde0b3335168f55ed0d32",
    "run RWB --bg-threads 1":
        "ff6c3aad755d157e0becdb6356de76e818cc4b861ce3b5405a50b007995a1ab7",
    "run RWB --shards 2 --workers 2":
        "559c2ccfb80f65584dae79ded42ee2e50a223bf9fca7163471ad32023d642d69",
}

_HOST_COLUMNS = {"wall s", "cpu s"}
_HOST_ROWS = {"wall seconds"}
_HOST_JSON = ("fill_wall_s", "fill_cpu_s", "read_wall_s", "read_cpu_s",
              "wall_s", "ops_per_sec")
_RULE = re.compile(r"-+(  -+)*")
_cells = re.compile(r"\s{2,}").split


def _argv(command):
    size = ["--ops", "500"] if command == "paper_scale" else TINY
    return command.split() + size


def _mask_host_cells(out):
    """Blank what depends on the host: the ``wall s`` / ``cpu s`` columns,
    the ``wall seconds`` row and ``paper_scale``'s timing fields.  A table
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
        if not (_HOST_COLUMNS & set(header) or any(r[0] in _HOST_ROWS for r in rows)):
            continue
        lines[i - 1], lines[i] = "|".join(header), ""
        for k, row in enumerate(rows):
            lines[i + 1 + k] = "|".join(
                "*" if name in _HOST_COLUMNS or (n and row[0] in _HOST_ROWS) else cell
                for n, (name, cell) in enumerate(zip(header, row))
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
            ["crashtest", "--policy", "ldc", "--every", "25", "--shards", "2"]
        )
        assert args.experiment == "crashtest"
        assert args.policy == "ldc"
        assert args.every == 25
        assert args.shards == 2
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

    @pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
    def test_run_tiny(self, capsys, command):
        """Each CLI path runs end-to-end at tiny scale and prints, byte for
        byte, what it printed before the shell was rewritten."""
        assert main(_argv(command)) == 0
        out = _mask_host_cells(capsys.readouterr().out)
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command], out

    def test_every_subcommand_has_a_golden(self):
        assert {command.split()[0] for command in GOLDEN_STDOUT} == set(EXPERIMENTS)

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

    @pytest.mark.parametrize("command", ["fig08", "run RWB", "shard_scaling"])
    def test_nonpositive_workers_exit_two(self, capsys, command):
        assert main(command.split() + ["--workers", "0"] + TINY) == 2
        assert "worker count must be >= 1" in capsys.readouterr().err
        assert experiments.default_workers() is None


class TestErrorTyping:
    @pytest.mark.parametrize(
        "command",
        [
            "run RWB --shards 0",
            "run RWB --flash --flash-logical-mib 1",
            "serve RWB --tenants 0",
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
        "command, entry",
        [("run RWB", "run_sharded_workload"), ("serve RWB", "serve_workload")],
    )
    def test_an_engine_bug_keeps_its_traceback(self, monkeypatch, command, entry):
        """Only ``ConfigError`` / ``FlashFullError`` are usage errors."""

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
                "serve", "RWB", "--arrival", "onoff", "--rate", "9000",
                "--tenants", "3", "--slo-us", "500", "--queue-depth", "32",
                "--discipline", "priority", "--bg-threads", "2",
            ]
        )
        assert args.experiment == "serve"
        assert args.workload == "RWB"
        assert args.arrival == "onoff"
        assert args.rate == 9000.0
        assert args.tenants == 3
        assert args.slo_us == 500.0
        assert args.queue_depth == 32
        assert args.discipline == "priority"
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

    def test_serve_multi_tenant_reports_per_tenant(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "1000", "--keys", "300",
                    "--tenants", "2", "--rate", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "per tenant" in out
        assert "t0" in out and "t1" in out

    def test_serve_sharded_runs_tiny(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "1000", "--keys", "300",
                    "--shards", "2", "--rate", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "aggregate" in out

    def test_serve_closed_arrival_runs(self, capsys):
        assert (
            main(["serve", "RWB", "--ops", "800", "--keys", "300",
                  "--arrival", "closed"])
            == 0
        )
        out = capsys.readouterr().out
        assert "arrival=closed" in out

    def test_serve_unknown_workload_errors(self, capsys):
        assert main(["serve", "NOPE", "--ops", "500", "--keys", "200"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_serve_sharded_rejects_closed(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "500", "--keys", "200",
                    "--shards", "2", "--arrival", "closed",
                ]
            )
            == 2
        )
        assert "closed" in capsys.readouterr().err

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
    def test_sharded_run_end_to_end(self, capsys) -> None:
        assert main([
            "run", "RWB", "--shards", "3", "--ops", "900", "--keys", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "shards=3" in out
        assert "per shard" in out

    def test_range_partitioner_flag(self, capsys) -> None:
        assert main([
            "run", "WO", "--shards", "2", "--partitioner", "range",
            "--ops", "600", "--keys", "200", "--policy", "udc",
        ]) == 0
        assert "range" in capsys.readouterr().out

    def test_default_workload_is_rwb(self, capsys) -> None:
        assert main(["run", "--shards", "2", "--ops", "600", "--keys", "200"]) == 0
        assert "workload=RWB" in capsys.readouterr().out

    def test_unknown_workload_exits_two(self, capsys) -> None:
        assert main(["run", "NOPE", "--shards", "2"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_shard_count_exits_two(self, capsys) -> None:
        assert main(["run", "RWB", "--shards", "0", "--ops", "100"]) == 2

    def test_listed(self, capsys) -> None:
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "run" in out.splitlines()
        assert "shard_scaling" in out
