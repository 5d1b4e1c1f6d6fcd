"""The repo's benchmark of record: two clocks, four workloads, per-layer rows.

Driver form (one workload, one JSON object on the last line of stdout)::

    python3 bench/run.py --workload fill --seed 1 --seconds 10 --trace 0

Suite form (every workload, every metric by name with its unit)::

    python3 bench/run.py [--seed N] [--smoke] [--aa]

This file is the command line, the suite and the A/A comparison;
``measure.py`` does the measuring, ``bench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics measured on the host clock; every other end-to-end
#: metric is virtual-time or a count and must repeat exactly for one seed.
HOST_METRICS = ("setup_s", "host_kops_per_cpu_s", "peak_rss_mb")
#: Per-layer metrics that carry host time (the rest repeat exactly).
HOST_LAYER_SUFFIXES = (".self_share", ".incl_share", ".cpu_s")
HOST_LAYER_NAMES = (
    "host_cpu_s.iqr_rel", "trace_overhead_x", "workload.gen_kops_per_cpu_s",
    "import_s", "machine_slowdown_x",
)


def _fail(message: str):
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def _declared(section: str) -> Dict[str, dict]:
    return {metric["name"]: metric for metric in MANIFEST[section]}


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     smoke: bool) -> dict:
    """Measure one workload in this process; write and return its record.

    The record keeps exactly the metrics ``BENCHMARK.json`` declares (a
    declared metric the measurement did not produce is an error).
    """
    sys.path[:0] = [str(SRC), str(BENCH)]
    from measure import run_workload

    OUT.mkdir(exist_ok=True)
    record = run_workload(name, seed, seconds, smoke,
                          pstats_path=OUT / f"{name}.pstats" if trace else None)
    record["environment"] = _environment()
    for section in ("end_to_end", "per_layer"):
        if section in record:
            record[section] = {
                metric: record[section][metric] for metric in _declared(section)}
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def result_line(record: dict, trace: bool) -> str:
    """The driver's contract: exactly the declared metrics, with units."""
    section = "per_layer" if trace else "end_to_end"
    values = record[section]
    metrics = {
        name: {"value": values[name], "unit": spec["unit"]}
        for name, spec in _declared(section).items()
    }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Suite and A/A
# ----------------------------------------------------------------------
def run_suite(seed: int, seconds: float, smoke: bool) -> Dict[str, dict]:
    """Every workload in its own fresh process; prints every metric."""
    records = {}
    for entry in MANIFEST["workloads"]:
        name = entry["name"]
        command = [sys.executable, __file__, "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", "1"]
        if smoke:
            command.append("--smoke")
        record_path = OUT / f"{name}.json"
        record_path.unlink(missing_ok=True)
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if not record_path.exists():
            sys.stderr.write(done.stderr)
            _fail(f"workload {name} exited with code {done.returncode}")
        records[name] = json.loads(record_path.read_text())
        _print_record(records[name])
    return records


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"repeats={record['repeats']} correct={record['correct']} "
          f"failed={record['failed']}/{record['attempted']} "
          f"env={record['environment']}")
    for section in ("end_to_end", "per_layer"):
        for name, spec in _declared(section).items():
            print(f"  {name:42s} {record[section][name]:>16.6g} {spec['unit']}")
    for name, value in record["info"].items():
        print(f"  ({name} = {value})")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def _is_exact(section: str, name: str) -> bool:
    if section == "end_to_end":
        return name not in HOST_METRICS
    return not (name.endswith(HOST_LAYER_SUFFIXES) or name in HOST_LAYER_NAMES)


def compare_aa(first: Dict[str, dict], second: Dict[str, dict]) -> int:
    """Two runs of the same code: host metrics within bound, the rest equal."""
    breaches = 0
    for workload in first:
        print(f"== A/A {workload}")
        for section in ("end_to_end", "per_layer"):
            for name, spec in _declared(section).items():
                a, b = first[workload][section][name], second[workload][section][name]
                if _is_exact(section, name):
                    if a != b:
                        breaches += 1
                        print(f"  BREACH {name}: {a!r} != {b!r} (must repeat exactly)")
                elif section == "end_to_end":
                    worse = (b - a if spec["better"] == "lower" else a - b) / a
                    flag = "BREACH" if abs(worse) > spec["bound"] else "ok"
                    breaches += flag == "BREACH"
                    print(f"  {flag:6s} {name:24s} {a:12.6g} {b:12.6g} "
                          f"diff {worse:+.2%} bound {spec['bound']:.0%}")
    return breaches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in MANIFEST["workloads"]],
                        help="run this workload only and end with one JSON line")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds WorkloadSpec.seed and ServeSpec.seed only")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall time to keep repeating for (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = emit the per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one repeat per sub-seed")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and compare against the bounds")
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        _fail(f"engine sources not found at {SRC / 'repro'}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(MANIFEST["run_seconds"])
    if args.workload:
        record = measure_workload(args.workload, args.seed, seconds,
                                  bool(args.trace), args.smoke)
        for problem in record["problems"]:
            sys.stderr.write(f"bench: {problem}\n")
        print(result_line(record, bool(args.trace)))
        return 0 if record["correct"] else 1

    first = run_suite(args.seed, seconds, args.smoke)
    bad = sum(not record["correct"] for record in first.values())
    if args.aa:
        bad += compare_aa(first, run_suite(args.seed, seconds, args.smoke))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
