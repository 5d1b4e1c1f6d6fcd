"""The parallel experiment grid must be invisible in the results.

Every grid point simulates its own device and virtual clock, so fanning
the grid out over worker processes may change nothing but wall-clock
time: same ordering, same simulated metrics, bit for bit.
"""

from __future__ import annotations

import pickle

import pytest

from repro import DB, get_spec
from repro.errors import ConfigError
from repro.harness.experiments import (
    GridTask,
    default_workers,
    run_grid,
    set_default_workers,
)
from repro.obs.snapshot import MetricsSnapshot
from repro.workload import spec as workloads

TINY_OPS = 1500
TINY_KEYS = 600


def _tiny_tasks() -> list:
    spec_item = workloads.rwb(num_operations=TINY_OPS, key_space=TINY_KEYS)
    return [
        GridTask("rwb", spec_item, "udc"),
        GridTask("rwb", spec_item, get_spec("ldc").derive(threshold=5)),
        GridTask("rwb", spec_item, get_spec("ldc").derive(adaptive=True),
                 policy_label="LDC-adaptive"),
    ]


def _fingerprint(result) -> tuple:
    """Everything deterministic about a run, including the full snapshot."""
    return (
        result.policy,
        result.operations,
        result.elapsed_us,
        result.total_read_bytes,
        result.total_write_bytes,
        result.compaction_read_bytes,
        result.compaction_write_bytes,
        result.flush_count,
        result.compaction_count,
        tuple(sorted(result.metrics.counters.items())),
    )


class TestRunGrid:
    def test_parallel_matches_serial_exactly(self) -> None:
        tasks = _tiny_tasks()
        serial = run_grid(tasks, workers=1)
        parallel = run_grid(tasks, workers=2)
        assert [_fingerprint(r) for r in serial] == [
            _fingerprint(r) for r in parallel
        ]

    def test_results_preserve_task_order(self) -> None:
        tasks = _tiny_tasks()
        results = run_grid(tasks, workers=2)
        # RunResult.policy is the engine's own policy name; the first task
        # is the only UDC one, so order survives the round trip.
        assert [r.policy for r in results] == ["udc", "ldc", "ldc"]

    def test_default_workers_flow(self) -> None:
        assert default_workers() is None
        set_default_workers(4)
        try:
            assert default_workers() == 4
        finally:
            set_default_workers(None)
        assert default_workers() is None

    def test_rejects_nonpositive_worker_count(self) -> None:
        with pytest.raises(ConfigError):
            set_default_workers(0)


class TestPicklability:
    def test_derived_spec_roundtrip(self) -> None:
        spec = get_spec("ldc").derive(threshold=7, adaptive=False)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        params = clone.param_dict()
        assert params["threshold"] == 7
        assert params["adaptive"] is False
        policy = clone.build()
        assert policy.name == "ldc"
        # The threshold override resolves against config at attach time
        # (adaptive=False pins it to the fixed value).
        db = DB(policy=policy)
        assert db.policy.movement.threshold == 7

    def test_metrics_snapshot_roundtrip(self) -> None:
        snap = MetricsSnapshot(
            t_us=12.5, counters={"engine.puts": 3}, gauges={"policy.t": 5}
        )
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.t_us == snap.t_us
        assert dict(clone.counters) == {"engine.puts": 3}
        assert dict(clone.gauges) == {"policy.t": 5}

    def test_grid_task_roundtrip(self) -> None:
        task = _tiny_tasks()[1]
        clone = pickle.loads(pickle.dumps(task))
        assert clone.label == task.label
        assert clone.spec.num_operations == TINY_OPS
