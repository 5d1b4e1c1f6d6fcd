"""PolicySpec API: registry, pickling, coercion, validation, compat.

The PR 6 contract: one central registry behind every policy-name surface
(DB construction, CLI, grids, crashtest), specs that round-trip through
pickle, and typed errors listing the valid names.
"""

import pathlib
import pickle

import pytest

from repro import (
    DB,
    CompactionPolicy,
    PolicySpec,
    UnknownPolicyError,
    available_policies,
    get_spec,
    make_policy,
)
from repro.errors import ConfigError
from repro.lsm.compaction.spec import _REGISTRY, register_policy
from repro.lsm.config import LSMConfig

EXPECTED_POLICIES = ("delayed", "ldc", "tiered", "udc")

DESIGN_SPACE_DOC = pathlib.Path(__file__).parent.parent / "docs" / "DESIGN_SPACE.md"

TINY = LSMConfig(
    memtable_bytes=2048,
    sstable_target_bytes=2048,
    block_bytes=512,
    fan_out=4,
    level1_capacity_bytes=4096,
    max_levels=6,
)

#: LDC with T_s held at 10 over TINY's fan-out of 4.
LDC_TS10 = get_spec("ldc").derive(threshold=10)


def doc_example(heading: str) -> dict:
    """Run the first code block under docs/DESIGN_SPACE.md's ``heading``;
    return the names it defined."""
    text = DESIGN_SPACE_DOC.read_text(encoding="utf-8")
    section = text.split(f"## {heading}", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    return namespace


def doc_example_spec() -> PolicySpec:
    """Run docs/DESIGN_SPACE.md's ``PolicySpec`` example; return its spec."""
    return doc_example("PolicySpec")["spec"]


class TestRegistry:
    def test_standard_catalogue(self):
        assert available_policies() == EXPECTED_POLICIES

    def test_get_spec_returns_registered_spec(self):
        spec = get_spec("ldc")
        assert spec.name == "ldc"
        assert spec.selector == "ldc_unit"
        assert spec.movement == "ldc_link_merge"

    def test_unknown_name_raises_typed_error_listing_names(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            get_spec("nope")
        assert excinfo.value.name == "nope"
        assert excinfo.value.known == EXPECTED_POLICIES
        for name in EXPECTED_POLICIES:
            assert name in str(excinfo.value)

    def test_unknown_policy_error_is_config_error(self):
        assert issubclass(UnknownPolicyError, ConfigError)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_policy(get_spec("udc"))

    def test_register_custom_policy_reaches_db(self):
        spec = get_spec("delayed").derive(name="custom_delayed", delay_factor=5.0)
        register_policy(spec)
        try:
            db = DB(config=TINY, policy="custom_delayed")
            assert db.policy.name == "custom_delayed"
            assert db.policy.trigger.delay_factor == 5.0
        finally:
            _REGISTRY.pop("custom_delayed")


class TestRoundTrips:
    @pytest.mark.parametrize("name", EXPECTED_POLICIES)
    def test_pickle_round_trip(self, name):
        spec = get_spec(name)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_params_normalize_to_sorted_tuple(self):
        a = PolicySpec(name="x", params={"b": 2, "a": 1})
        b = PolicySpec(name="x", params=(("a", 1), ("b", 2)))
        assert a == b
        assert a.params == (("a", 1), ("b", 2))

    def test_spec_factory_pickles_and_builds(self):
        """The spec itself is the picklable policy factory — also the one
        docs/DESIGN_SPACE.md shows."""
        for spec in (get_spec("tiered"), doc_example_spec()):
            clone = pickle.loads(pickle.dumps(spec))
            policy = clone.build()
            assert isinstance(policy, CompactionPolicy)
            assert policy.name == spec.name
            # Each call builds a fresh stateful instance.
            assert clone.build() is not policy


class TestDerive:
    def test_derive_updates_params(self):
        spec = get_spec("ldc").derive(threshold=7)
        assert spec.name == "ldc"
        assert spec.param_dict()["threshold"] == 7

    def test_derive_renames(self):
        spec = get_spec("tiered").derive(name="my_tiered")
        assert spec.name == "my_tiered"
        assert spec.movement == "tiered_merge"

    def test_orphan_param_rejected_at_build(self):
        spec = get_spec("udc").derive(warp_drive=9)
        with pytest.raises(ConfigError, match="warp_drive"):
            spec.build()


class TestCoercion:
    def test_make_policy_default(self):
        assert make_policy().name == "udc"

    def test_make_policy_name(self):
        assert make_policy("tiered").name == "tiered"

    def test_make_policy_spec(self):
        assert make_policy(get_spec("delayed")).name == "delayed"

    def test_make_policy_instance_passthrough(self):
        policy = get_spec("tiered").build()
        assert make_policy(policy) is policy

    def test_make_policy_variants(self):
        """The four designators, through the one resolver."""
        assert make_policy("ldc").name == "ldc"
        assert make_policy(get_spec("udc")).name == "udc"
        assert make_policy().name == "udc"
        sentinel = get_spec("ldc").build()
        assert make_policy(sentinel) is sentinel

    def test_db_policy_variants(self):
        """... and through ``DB(policy=...)``, which resolves with it."""
        assert DB(config=TINY, policy=LDC_TS10).policy.name == "ldc"
        assert DB(config=TINY, policy=get_spec("udc")).policy.name == "udc"
        assert DB(config=TINY, policy=None).policy.name == "udc"
        sentinel = LDC_TS10.build()
        assert DB(config=TINY, policy=sentinel).policy is sentinel

    def test_db_accepts_name_spec_and_instance(self):
        assert DB(config=TINY, policy="delayed").policy.name == "delayed"
        assert DB(config=TINY, policy=LDC_TS10).policy.name == "ldc"
        instance = get_spec("udc").build()
        assert DB(config=TINY, policy=instance).policy is instance

    def test_db_unknown_name_raises(self):
        with pytest.raises(UnknownPolicyError):
            DB(config=TINY, policy="nope")

    def test_db_non_policy_raises_typed_error(self):
        with pytest.raises(ConfigError, match="registered name") as excinfo:
            DB(config=TINY, policy=42)
        for form in ("None", "PolicySpec", "CompactionPolicy"):
            assert form in str(excinfo.value)


class TestPolicyKnobs:
    """Each policy knob has one home: T_s follows the fan-out unless the
    spec sets ``threshold``; ``adaptive`` is a spec parameter only."""

    @pytest.mark.parametrize("fan_out", (3, 4, 10))
    def test_ldc_threshold_is_the_fan_out(self, fan_out):
        config = TINY.with_overrides(fan_out=fan_out)
        assert DB(config=config, policy="ldc").policy.movement.threshold == fan_out
        pinned = DB(config=config, policy=get_spec("ldc").derive(threshold=7))
        assert pinned.policy.movement.threshold == 7

    def test_adaptive_only_via_spec(self):
        assert not any("adaptive" in name for name in vars(LSMConfig()))
        fixed = DB(config=TINY, policy="ldc").policy.movement
        assert fixed._adaptive is None and not fixed.observes_operations
        adaptive = DB(config=TINY, policy=get_spec("ldc").derive(adaptive=True))
        movement = adaptive.policy.movement
        assert movement._adaptive is not None and movement.observes_operations


class TestComposition:
    def test_candidate_kind_mismatch_rejected(self):
        spec = PolicySpec(
            name="bad", trigger="fanout", selector="runs",
            movement="merge_down", layout="tiered",
        )
        with pytest.raises(ConfigError, match="candidate"):
            spec.build()

    def test_sorted_layout_mismatch_rejected(self):
        spec = PolicySpec(
            name="bad", trigger="fanout", selector="file",
            movement="merge_down", layout="tiered",
        )
        with pytest.raises(ConfigError):
            spec.build()

    def test_unknown_primitive_rejected(self):
        spec = PolicySpec(name="bad", trigger="warp")
        with pytest.raises(ConfigError, match="unknown trigger"):
            spec.build()

    def test_describe_names_all_axes(self):
        text = get_spec("tiered").build().describe()
        for fragment in ("tier_count", "runs", "tiered_merge", "tiered"):
            assert fragment in text

    def test_doc_primitive_example_composes(self):
        """docs/DESIGN_SPACE.md's new trigger registers, composes and runs:
        its ``fire`` returns a bare level, and level 0 is a level."""
        from repro.lsm.compaction.primitives import TRIGGERS

        trigger = doc_example("Adding a primitive")["AlwaysL0"]
        try:
            assert TRIGGERS["always_l0"] is trigger
            db = DB(config=TINY, policy=PolicySpec(name="l0", trigger="always_l0"))
            for index in range(300):
                db.put(b"%06d" % index, b"v" * 30)
            db.flush()
            db.policy.maybe_compact()
            assert db.version.files(0) == [] and db.version.files(1)
            assert db.get(b"%06d" % 7) == b"v" * 30
        finally:
            TRIGGERS.pop("always_l0")


class TestBackwardCompat:
    def test_default_db_does_not_warn(self, recwarn):
        db = DB(config=TINY)
        assert db.policy.name == "udc"
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestNewCompositionsEndToEnd:
    def test_crashtest_tiered(self):
        from repro.faults import crashtest

        report = crashtest.run_crashtest(
            "tiered",
            num_ops=300,
            num_keys=60,
            stride=60,
        )
        assert report.ok, report.summary()

    def test_explore_smoke(self):
        from repro.harness import experiments

        report = experiments.design_space(
            policies=["udc", "tiered"], mixes=("RWB",), ops=400, key_space=150
        )
        assert [task.policy_label for task, _ in report["points"]] == ["udc", "tiered"]
        assert report["winners"]
        (_, rows), _ = experiments.design_tables(report)
        assert [row[0] for row in rows] == ["udc", "tiered"]

    def test_cli_explore_unknown_policy_exits_2(self, capsys):
        from repro.cli import main

        assert main(["explore", "--policies", "nope", "--ops", "10"]) == 2
        assert "known policies" in capsys.readouterr().err

    def test_cli_trace_unknown_policy_exits_2(self, capsys):
        from repro.cli import main

        assert main(["trace", "WO", "--policy", "nope", "--ops", "10"]) == 2
        assert "known policies" in capsys.readouterr().err
