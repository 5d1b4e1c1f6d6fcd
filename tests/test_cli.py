"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, build_parser, main


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

    @pytest.mark.parametrize("name", ["tab1", "fig08", "describe"])
    def test_run_tiny(self, capsys, name):
        """Each CLI path runs end-to-end at tiny scale."""
        assert main([name, "--ops", "1200", "--keys", "400"]) == 0
        out = capsys.readouterr().out
        assert out.strip()

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
