"""Property-based fault-injection tests (Hypothesis).

Random workloads crossed with random fault plans: the recovery oracle in
:mod:`repro.faults.crashtest` must hold at arbitrary crash points, UDC
and LDC must recover to read-equivalent logical states from the same
trace, and delivered read corruptions must never slip past a decode
path.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DB
from repro.errors import CorruptionError
from repro.faults import FaultPlan, crashtest
from repro.lsm.config import LSMConfig

COMMON = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def tiny() -> LSMConfig:
    return LSMConfig(
        memtable_bytes=1024,
        sstable_target_bytes=1024,
        block_bytes=256,
        fan_out=4,
        level1_capacity_bytes=2048,
        max_levels=6,
        bloom_bits_per_key=10,
    )


workload = st.builds(
    crashtest.build_operations,
    num_ops=st.integers(min_value=60, max_value=240),
    num_keys=st.integers(min_value=10, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
)

policies = st.sampled_from(["udc", "ldc"])


class TestCrashOracleProperty:
    @COMMON
    @given(
        ops=workload,
        io_index=st.integers(min_value=1, max_value=400),
        torn=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        policy=policies,
    )
    def test_oracle_holds_at_random_crash_points(self, ops, io_index, torn, policy):
        result = crashtest.run_crash_point(
            ops, policy, io_index, config=tiny(), torn_fraction=torn
        )
        assert result.ok, result.errors


class TestPolicyEquivalenceProperty:
    @COMMON
    @given(ops=workload)
    def test_udc_and_ldc_read_equivalent_after_recovery(self, ops):
        """Same trace, same crash-recover cycle: identical logical state."""
        states = []
        for policy in ("udc", "ldc"):
            store = DB(config=tiny(), policy=policy)
            for op in ops:
                crashtest._execute(store, op)
            store.crash_and_recover()
            store.check_invariants()
            states.append(dict(store.logical_items()))
        assert states[0] == states[1]


class TestCorruptionProperty:
    @COMMON
    @given(
        ops=workload,
        read_index=st.integers(min_value=1, max_value=120),
    )
    def test_delivered_corruption_always_detected(self, ops, read_index):
        plan = FaultPlan().corrupt_read(read_index)
        store = DB(config=tiny(), policy="udc", fault_plan=plan)
        detected = 0
        for op in ops:
            try:
                crashtest._execute(store, op)
            except CorruptionError:
                detected += 1
        delivered = int(store.registry.counter("faults.corrupted_blocks"))
        missed = int(store.registry.counter("faults.corruptions_missed"))
        assert missed == 0
        assert detected == delivered
