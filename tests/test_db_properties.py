"""Differential property tests: the DB vs a dict model, per policy.

These are the strongest correctness tests in the suite: arbitrary
interleavings of puts / deletes / gets / scans / flushes must behave
exactly like a sorted dictionary, regardless of compaction policy — and in
particular regardless of LDC's out-of-order link/merge timing.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import DB, get_spec
from repro.lsm.config import LSMConfig

TINY = LSMConfig(
    memtable_bytes=512,
    sstable_target_bytes=512,
    block_bytes=128,
    fan_out=3,
    level1_capacity_bytes=1024,
    max_levels=5,
)

POLICIES = ("ldc", "tiered", "udc")

key_indices = st.integers(min_value=0, max_value=60)


def make_key(index: int) -> bytes:
    return str(index).zfill(6).encode()


operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), key_indices, st.binary(max_size=30)),
        st.tuples(st.just("delete"), key_indices, st.none()),
        st.tuples(st.just("flush"), st.none(), st.none()),
    ),
    max_size=250,
)


@pytest.mark.parametrize("policy_name", POLICIES)
class TestDifferential:
    @given(ops=operations)
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_dict_model(self, policy_name, ops):
        db = DB(config=TINY, policy=policy_name)
        model = {}
        for kind, index, value in ops:
            if kind == "put":
                db.put(make_key(index), value)
                model[make_key(index)] = value
            elif kind == "delete":
                db.delete(make_key(index))
                model.pop(make_key(index), None)
            else:
                db.flush()
        # Point reads agree for every key ever touched (hit or miss).
        for index in range(61):
            key = make_key(index)
            assert db.get(key) == model.get(key), f"mismatch at {key!r}"
        # Full logical contents agree.
        assert dict(db.logical_items()) == model
        # A full scan agrees, in order.
        assert db.scan(b"0", 10_000) == sorted(model.items())
        # Structural invariants hold at the end.
        db.version.check_invariants()
        if hasattr(db.policy, "check_invariants"):
            db.policy.check_invariants()

    @given(ops=operations, start=key_indices, count=st.integers(1, 20))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_scan_window_matches_model(self, policy_name, ops, start, count):
        db = DB(config=TINY, policy=policy_name)
        model = {}
        for kind, index, value in ops:
            if kind == "put":
                db.put(make_key(index), value)
                model[make_key(index)] = value
            elif kind == "delete":
                db.delete(make_key(index))
                model.pop(make_key(index), None)
            else:
                db.flush()
        expected = [
            (key, model[key]) for key in sorted(model) if key >= make_key(start)
        ][:count]
        assert db.scan(make_key(start), count) == expected


class LSMStateMachine(RuleBasedStateMachine):
    """Stateful differential test against the LDC policy.

    Hypothesis drives arbitrary sequences of operations, checking reads
    continuously and structural invariants after every step.
    """

    def __init__(self):
        super().__init__()
        self.db = DB(config=TINY, policy="ldc")
        self.model = {}

    @rule(index=key_indices, value=st.binary(max_size=20))
    def put(self, index, value):
        self.db.put(make_key(index), value)
        self.model[make_key(index)] = value

    @rule(index=key_indices)
    def delete(self, index):
        self.db.delete(make_key(index))
        self.model.pop(make_key(index), None)

    @rule(index=key_indices)
    def get(self, index):
        assert self.db.get(make_key(index)) == self.model.get(make_key(index))

    @rule(start=key_indices, count=st.integers(1, 10))
    def scan(self, start, count):
        expected = [
            (key, self.model[key])
            for key in sorted(self.model)
            if key >= make_key(start)
        ][:count]
        assert self.db.scan(make_key(start), count) == expected

    @rule()
    def flush(self):
        self.db.flush()

    @precondition(lambda self: self.db.metrics().get("engine.puts") > 0)
    @rule()
    def recover(self):
        self.db.crash_and_recover()

    @invariant()
    def structure_is_sound(self):
        self.db.version.check_invariants()
        self.db.policy.check_invariants()


TestLDCStateMachine = LSMStateMachine.TestCase
TestLDCStateMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


class TieredStateMachine(LSMStateMachine):
    """The same stateful differential test against the tiered policy."""

    def __init__(self):
        RuleBasedStateMachine.__init__(self)
        self.db = DB(config=TINY, policy="tiered")
        self.model = {}

    @invariant()
    def structure_is_sound(self):
        self.db.version.check_invariants()


class DelayedStateMachine(LSMStateMachine):
    """And against the dCompaction-style delayed policy."""

    def __init__(self):
        RuleBasedStateMachine.__init__(self)
        self.db = DB(
            config=TINY, policy=get_spec("delayed").derive(delay_factor=2.0)
        )
        self.model = {}

    @invariant()
    def structure_is_sound(self):
        self.db.version.check_invariants()


class CachedLDCStateMachine(LSMStateMachine):
    """LDC plus the block cache: caching must never change results."""

    def __init__(self):
        RuleBasedStateMachine.__init__(self)
        self.db = DB(
            config=TINY.with_overrides(block_cache_bytes=4096),
            policy="ldc",
        )
        self.model = {}


TestTieredStateMachine = TieredStateMachine.TestCase
TestTieredStateMachine.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestDelayedStateMachine = DelayedStateMachine.TestCase
TestDelayedStateMachine.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestCachedLDCStateMachine = CachedLDCStateMachine.TestCase
TestCachedLDCStateMachine.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
