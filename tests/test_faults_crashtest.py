"""Tests for the crash-point enumeration harness (repro.faults.crashtest)."""

from dataclasses import replace

import pytest

from repro import DB
from repro.errors import ConfigError, UnknownPolicyError
from repro.faults import crashtest
from repro.lsm.compaction.spec import get_spec
from repro.lsm.config import LSMConfig


def small_config() -> LSMConfig:
    """Even smaller geometry than the harness default: fast exhaustive runs."""
    return LSMConfig(
        memtable_bytes=1024,
        sstable_target_bytes=1024,
        block_bytes=256,
        fan_out=4,
        level1_capacity_bytes=2048,
        max_levels=6,
        bloom_bits_per_key=10,
    )


class TestWorkloadGenerator:
    def test_deterministic(self):
        a = crashtest.build_operations(300, 50, seed=7)
        b = crashtest.build_operations(300, 50, seed=7)
        assert a == b
        c = crashtest.build_operations(300, 50, seed=8)
        assert a != c

    def test_mixes_all_op_kinds(self):
        kinds = {op[0] for op in crashtest.build_operations(500, 50, seed=0)}
        assert kinds == {"put", "delete", "batch", "get", "scan"}

    def test_op_effect_batch(self):
        op = ("batch", ((b"a", b"1"), (b"b", None), (b"a", b"2")))
        assert crashtest._op_effect(op) == {b"a": b"2", b"b": None}
        assert crashtest._op_effect(("get", b"a")) == {}


class TestReferenceRun:
    def test_counts_ios_and_maintenance(self):
        ops = crashtest.build_operations(400, 60, seed=1)
        ref = crashtest.run_reference(ops, "udc", config=small_config())
        assert ref.ios > 0
        assert ref.flushes >= 1
        assert 0 < ref.final_items <= 60

    def test_ldc_reference_links_and_merges(self):
        """The default acceptance geometry drives LDC links AND merges."""
        ops = crashtest.build_operations(2000, 200, seed=0)
        ref = crashtest.run_reference(ops, "ldc")
        assert ref.flushes >= 1
        assert ref.links >= 1
        assert ref.merges >= 1


class TestCrashPoints:
    def test_single_point_fires_and_recovers(self):
        ops = crashtest.build_operations(300, 50, seed=2)
        result = crashtest.run_crash_point(
            ops, "udc", 10, config=small_config()
        )
        assert result.fired
        assert result.crash_category is not None
        assert result.ok, result.errors

    def test_overshoot_index_never_fires(self):
        ops = crashtest.build_operations(50, 20, seed=3)
        result = crashtest.run_crash_point(
            ops, "udc", 10**9, config=small_config()
        )
        assert not result.fired
        assert result.ok, result.errors

    @pytest.mark.parametrize("torn", [0.0, 0.5, 1.0])
    def test_torn_fractions_recover(self, torn):
        ops = crashtest.build_operations(300, 50, seed=4)
        result = crashtest.run_crash_point(
            ops,
            "udc",
            5,
            config=small_config(),
            torn_fraction=torn,
        )
        assert result.fired
        assert result.ok, result.errors


class TestFullEnumeration:
    @pytest.mark.parametrize("name", ["udc", "ldc", "tiered", "delayed"])
    def test_exhaustive_small_run(self, name):
        report = crashtest.run_crashtest(
            name,
            num_ops=220,
            num_keys=40,
            seed=0,
            stride=1,
            config=small_config(),
        )
        assert report.points_run == report.reference.ios
        assert report.points_fired == report.points_run
        assert report.ok, report.summary()
        assert "PASS" in report.summary()

    def test_stride_samples(self):
        report = crashtest.run_crashtest(
            "udc",
            num_ops=220,
            num_keys=40,
            seed=0,
            stride=7,
            config=small_config(),
        )
        expected = len(range(1, report.reference.ios + 1, 7))
        assert report.points_run == expected
        assert report.ok, report.summary()

    def test_progress_callback(self):
        seen = []
        crashtest.run_crashtest(
            "udc",
            num_ops=120,
            num_keys=30,
            stride=11,
            config=small_config(),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen
        assert seen[-1][0] == seen[-1][1] == len(seen)

    def test_invalid_stride_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            crashtest.run_crashtest("udc", stride=0)


class TestPolicyCheck:
    """A sweep builds many stores (the reference, one per crash point, the
    corruption probe), so it takes a policy name or a spec, never a built
    instance; both entry points check before building anything."""

    ENTRIES = (crashtest.run_crashtest, crashtest.run_corruption_test)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_built_instance_is_a_config_error(self, entry):
        with pytest.raises(
            ConfigError, match="cannot be shared by the crash-point stores"
        ):
            entry(get_spec("ldc").build(), num_ops=50, num_keys=20)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_an_unknown_name_or_a_non_policy_is_refused(self, entry):
        with pytest.raises(UnknownPolicyError):
            entry("nope", num_ops=50, num_keys=20)
        with pytest.raises(ConfigError, match="policy must be"):
            entry(3.5, num_ops=50, num_keys=20)


class TestSizeCheck:
    """A sweep over no operations, keys or corruptions checks nothing: both
    entry points refuse one before building a workload or a store (0 keys
    used to raise ``ValueError`` from ``randrange``, 0 operations to report
    PASS over no crash point, 0 corruptions ``ZeroDivisionError`` and -3 a
    corruption on every read)."""

    @pytest.fixture(autouse=True)
    def nothing_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a workload before checking sizes")

        monkeypatch.setattr(crashtest, "build_operations", refuse)

    @pytest.mark.parametrize("entry", TestPolicyCheck.ENTRIES)
    @pytest.mark.parametrize(
        "sizes, name",
        [({"num_ops": 0}, "num_ops"), ({"num_keys": 0}, "num_keys"),
         ({"num_ops": -5}, "num_ops")],
    )
    def test_no_operations_or_keys_is_a_config_error(self, entry, sizes, name):
        with pytest.raises(ConfigError, match=f"^{name} must be positive"):
            entry("udc", **sizes)

    @pytest.mark.parametrize("corruptions", [0, -3])
    def test_no_corruptions_is_a_config_error(self, corruptions):
        with pytest.raises(ConfigError, match="^corruptions must be positive"):
            crashtest.run_corruption_test("udc", corruptions=corruptions)


class TestBatchAtomicity:
    """The oracle's all-or-nothing check on the batch in flight at a crash."""

    MODEL = {b"a": b"a0", b"b": b"b0"}
    PENDING = ("batch", ((b"a", b"a1"), (b"b", b"b1")))

    def verify(self, recovered):
        store = DB(config=small_config(), policy="udc")
        for key, value in recovered.items():
            store.put(key, value)
        result = crashtest.CrashPointResult(io_index=1, torn_fraction=0.0, fired=True)
        crashtest._verify_oracle(store, dict(self.MODEL), self.PENDING, result)
        return result.errors

    @pytest.mark.parametrize(
        "recovered",
        [{b"a": b"a0", b"b": b"b0"}, {b"a": b"a1", b"b": b"b1"}],
        ids=["neither", "both"],
    )
    def test_a_whole_batch_either_way_is_atomic(self, recovered):
        assert self.verify(recovered) == []

    def test_one_key_applied_is_a_torn_batch(self):
        errors = self.verify({b"a": b"a1", b"b": b"b0"})
        assert errors == [
            "torn batch: some keys show the old state, some the new"
        ]


class TestFlashCrashtest:
    """Crash points with an FTL mounted: GC relocations are in-schedule."""

    def test_flash_reference_preserves_logical_behaviour(self):
        """Mounting the FTL changes device traffic, never engine results."""
        ops = crashtest.build_operations(1200, 150, seed=0)
        plain = crashtest.run_reference(
            ops, "ldc", config=small_config()
        )
        flashed = crashtest.run_reference(
            ops,
            "ldc",
            config=small_config(),
            flash=crashtest.CRASHTEST_FLASH_SPEC,
        )
        assert flashed.flushes == plain.flushes
        assert flashed.links == plain.links
        assert flashed.merges == plain.merges
        assert flashed.final_items == plain.final_items
        # GC relocation charges make the flash run strictly busier.
        assert flashed.ios > plain.ios

    @pytest.mark.parametrize("name", ["udc", "ldc"])
    def test_flash_crash_sweep_recovers(self, name):
        report = crashtest.run_crashtest(
            name,
            num_ops=1200,
            num_keys=150,
            seed=0,
            stride=37,
            config=small_config(),
            flash=crashtest.CRASHTEST_FLASH_SPEC,
        )
        assert report.points_fired == report.points_run
        assert report.ok, report.summary()

    @staticmethod
    def gc_io_indices(policy, ops):
        """1-based charged-I/O indices of GC relocation traffic.

        A fault-free flash run emits one ``device_read``/``device_write``
        trace event per charged transfer — but the fault plan counts the
        *host* write before the GC charges it triggers (the checkpoint
        fires on entry, the relocations nest inside), while the trace
        logs the nested GC events first.  Reconstruct count order by
        moving each triggering host write ahead of its buffered GC
        events.
        """
        from repro import DB, RingBufferSink, Tracer
        from repro.ssd.flash import DeviceConfig

        ring = RingBufferSink(capacity=1 << 20)
        tracer = Tracer()
        tracer.add_sink(ring)
        db = DB(
            config=small_config(),
            policy=policy,
            profile=DeviceConfig(flash=crashtest.CRASHTEST_FLASH_SPEC),
            tracer=tracer,
        )
        for op in ops:
            crashtest._execute(db, op)
        order = []
        pending_gc = []
        for event in ring.events_of("device_read", "device_write"):
            category = event.fields["category"]
            if category in ("gc_read", "gc_write"):
                pending_gc.append(category)
            elif pending_gc:
                # GC only ever nests inside a host write's charge.
                assert event.kind == "device_write", event
                order.append(category)
                order.extend(pending_gc)
                pending_gc = []
            else:
                order.append(category)
        assert not pending_gc
        return [
            index
            for index, category in enumerate(order, start=1)
            if category in ("gc_read", "gc_write")
        ]

    @pytest.mark.parametrize("name", ["udc", "ldc"])
    def test_flash_crash_point_mid_gc_recovers(self, name):
        """A crash landing exactly on a GC charge leaves the store whole."""
        ops = crashtest.build_operations(1200, 150, seed=0)
        gc_points = self.gc_io_indices(name, ops)
        assert gc_points, f"{name}: workload produced no GC relocations"
        for io_index, torn in zip(gc_points[:4], (0.0, 0.5, 1.0, 0.0)):
            result = crashtest.run_crash_point(
                ops,
                name,
                io_index,
                config=small_config(),
                torn_fraction=torn,
                flash=crashtest.CRASHTEST_FLASH_SPEC,
            )
            assert result.fired
            assert result.crash_category in ("gc_read", "gc_write"), (
                result.crash_category
            )
            assert result.ok, result.errors


class TestCorruptionSweep:
    @pytest.mark.parametrize("name", ["udc", "ldc"])
    def test_all_delivered_corruptions_detected(self, name):
        report = crashtest.run_corruption_test(
            name,
            num_ops=400,
            num_keys=60,
            seed=0,
            corruptions=10,
            config=small_config(),
        )
        assert report.scheduled > 0
        assert report.delivered > 0
        assert report.detected == report.delivered
        assert report.missed == 0
        assert report.ok
        assert "PASS" in report.summary()


class TestBackgroundThreadCrashtest:
    """Crash points with a compaction thread and the flush lane: a crash
    can land while flushes and rounds are still time debt in flight."""

    @pytest.mark.parametrize("name", ["udc", "ldc"])
    def test_one_thread_crash_sweep_recovers(self, name, monkeypatch):
        from repro.sched.scheduler import CompactionScheduler

        flushes_lost = []
        discard = CompactionScheduler.discard_inflight

        def spy(sched):
            flushes_lost.append(sched.flush_lane.task is not None)
            return discard(sched)

        monkeypatch.setattr(CompactionScheduler, "discard_inflight", spy)
        config = replace(crashtest.default_config(), bg_threads=1)
        report = crashtest.run_crashtest(name, stride=31, config=config)
        assert report.points_run > 60
        assert report.points_fired == report.points_run
        assert report.ok, report.summary()
        # Some crashes land while a flush is still paying its time.
        assert any(flushes_lost)
