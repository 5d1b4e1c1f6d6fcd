"""Guard against example bitrot: every example must at least compile and
import only names the library actually exports."""

import ast
import py_compile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Every `from repro... import X` in an example must resolve."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            module = __import__(node.module, fromlist=[a.name for a in node.names])
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module} has no attribute {alias.name}"
                )


def load_example(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSSDEnduranceOutput:
    """The endurance example must report *measured* flash wear."""

    def test_run_reports_real_device_metrics(self):
        example = load_example("ssd_endurance")
        flash, rows = example.run(num_ops=3000, key_space=900, value_bytes=256)
        assert flash.over_provisioning == example.OVER_PROVISIONING
        assert {row["policy"] for row in rows} == {"UDC", "LDC"}
        for row in rows:
            assert row["device_wa"] >= 1.0
            assert row["total_wa"] == pytest.approx(
                row["host_wa"] * row["device_wa"]
            )
            assert row["programmed_bytes"] >= row["host_bytes"]
            assert row["blocks_erased"] > 0
            assert row["max_erase"] >= 1

    def test_main_prints_wa_decomposition(self, capsys):
        example = load_example("ssd_endurance")
        example.main(num_ops=3000, key_space=900, value_bytes=256)
        out = capsys.readouterr().out
        assert "flash geometry:" in out
        assert "device WA" in out
        assert "total WA" in out
        assert "max P/E" in out
        assert "P/E cycles" in out
        assert "UDC" in out and "LDC" in out


class TestOpenLoopSLOOutput:
    """The serving example must report queue-inflated numbers per load."""

    def test_run_reports_queueing_decomposition(self):
        example = load_example("open_loop_slo")
        rows = example.run(num_ops=2000, key_space=700)
        assert [(row["rate_ops_s"], row["policy"]) for row in rows] == [
            (rate, policy)
            for rate in example.LOADS_OPS_S for policy in ("UDC", "LDC")
        ]
        for row in rows:
            # Open loop: waits are real, and the SLO-bound total tail sits
            # above the pure service time.
            assert row["mean_wait_us"] > 0.0
            assert row["p999_us"] >= row["p99_us"] > row["mean_service_us"]
            assert 0.0 <= row["slo_violation_rate"] <= 1.0
        udc, ldc = rows[-2:]
        assert udc["p999_us"] > ldc["p999_us"]
        assert udc["slo_violation_rate"] > ldc["slo_violation_rate"]

    def test_main_prints_slo_report(self, capsys):
        example = load_example("open_loop_slo")
        example.main(num_ops=2000, key_space=700)
        out = capsys.readouterr().out
        assert "open-loop Poisson arrivals" in out
        assert "SLO" in out
        assert "p99.9" in out
        assert "15,000" in out
        assert "UDC" in out and "LDC" in out


def test_expected_examples_present():
    names = {path.name for path in EXAMPLES}
    assert {
        "quickstart.py",
        "social_feed.py",
        "ssd_endurance.py",
        "compare_policies.py",
        "adaptive_tuning.py",
        "btree_absorption.py",
        "open_loop_slo.py",
    } <= names
