"""Unit and behavioural tests for the LDC policy (link & merge)."""

import random
from itertools import combinations

import pytest

from repro import DB, get_spec
from repro.errors import CompactionError
from repro.lsm.config import LSMConfig

from tests.conftest import key_of


def fill(db: DB, count: int, key_space: int, seed: int = 1, value_bytes: int = 40):
    rng = random.Random(seed)
    model = {}
    for index in range(count):
        key = key_of(rng.randrange(key_space))
        value = f"v{index}".encode() + b"x" * value_bytes
        db.put(key, value)
        model[key] = value
    return model


class TestLinkPhase:
    def test_links_happen_under_load(self, ldc_db):
        fill(ldc_db, 3000, 800)
        assert ldc_db.metrics().get("engine.link_count") > 0

    def test_frozen_files_leave_the_tree(self, ldc_db):
        fill(ldc_db, 3000, 800)
        in_tree = {t.file_id for t in ldc_db.version.all_tables()}
        for frozen_file in ldc_db.policy.movement.frozen.files():
            assert frozen_file.file_id not in in_tree

    def test_slice_plan_partitions_the_source(self, ldc_db):
        """Responsibility ranges tile the key space: the slice plan covers
        every record of the source exactly once (Example 3.2)."""
        fill(ldc_db, 3000, 800)
        policy = ldc_db.policy
        version = ldc_db.version
        checked = 0
        for level in range(version.num_levels - 1):
            if not version.files(level + 1):
                continue
            for source in version.files(level):
                plan = policy.movement._slice_plan(source, level + 1)
                covered = sum(
                    source.count_in_range(lo, hi) for _, lo, hi in plan
                )
                assert covered == source.num_records
                # Ranges are disjoint and ordered.
                for (_, _, hi_a), (_, lo_b, _) in zip(plan, plan[1:]):
                    assert hi_a is not None and lo_b is not None
                    assert hi_a <= lo_b
                checked += 1
        assert checked > 0

    def test_link_is_zero_io(self, tiny_config):
        """The link phase is pure metadata: no device bytes move."""
        db = DB(
            config=tiny_config, policy=get_spec("ldc").derive(threshold=10_000)
        )
        # Build a two-level tree, then force one link and compare I/O.
        for index in range(400):
            db.put(key_of(index), b"v" * 40)
        db.policy.maybe_compact()
        version = db.version
        level = None
        for candidate in range(version.num_levels - 1):
            if version.files(candidate) and version.files(candidate + 1):
                level = candidate
                break
        if level is None:
            pytest.skip("tree too shallow for a link in this configuration")
        source = next(
            (t for t in version.files(level) if not t.slice_links), None
        )
        if source is None:
            pytest.skip("no link-free source available")
        before = db.metrics().total_bytes_read + db.metrics().total_bytes_written
        db.policy.movement.link(source, level)
        after = db.metrics().total_bytes_read + db.metrics().total_bytes_written
        assert after == before
        assert source.frozen

    def test_linked_file_cannot_be_linked_again(self, ldc_db):
        fill(ldc_db, 2000, 500)
        policy = ldc_db.policy
        for table in ldc_db.version.all_tables():
            if table.slice_links:
                level = ldc_db.version.level_of(table)
                with pytest.raises(CompactionError, match="SliceLinks"):
                    policy.movement.link(table, level)
                return
        pytest.skip("no linked table at end of run")


class TestMergePhase:
    def test_merges_triggered_by_threshold(self, ldc_db):
        fill(ldc_db, 4000, 1000)
        assert ldc_db.metrics().get("engine.merge_count") > 0

    def test_merge_without_links_rejected(self, ldc_db):
        fill(ldc_db, 500, 200)
        table = next(
            t for t in ldc_db.version.all_tables() if not t.slice_links
        )
        with pytest.raises(CompactionError, match="no SliceLinks"):
            ldc_db.policy.movement.merge(table)

    def test_refcounts_reach_zero_and_recycle(self, ldc_db):
        fill(ldc_db, 4000, 1000)
        region = ldc_db.policy.movement.frozen
        assert region.total_recycled > 0
        region.check_invariants()

    def test_policy_invariants_hold_under_load(self, ldc_db):
        fill(ldc_db, 4000, 1000)
        ldc_db.policy.check_invariants()
        ldc_db.version.check_invariants()

    def test_read_order_violation_is_caught(self, ldc_db):
        """Two links that share a key, swapped: the later link now holds
        the older record, and a lookup stopping at it would read stale."""
        fill(ldc_db, 4000, 1000)
        movement = ldc_db.policy.movement
        movement.check_invariants()
        shared = [
            (table, older, newer)
            for table in ldc_db.version.all_tables()
            for older, newer in combinations(table.slice_links, 2)
            if {r.key for r in older.records()} & {r.key for r in newer.records()}
        ]
        assert shared, "no two slices of one table share a key; vacuous"
        table, older, newer = shared[0]
        older.link_seq, newer.link_seq = newer.link_seq, older.link_seq
        table._links_newest = None
        with pytest.raises(CompactionError, match="not older than"):
            movement.check_invariants()

    def test_slice_span_violation_is_caught(self, ldc_db):
        """A get skips a slice whose span misses the key: a span narrower
        than the slice's window, or an empty slice, would hide records."""
        fill(ldc_db, 4000, 1000)
        movement = ldc_db.policy.movement
        movement.check_invariants()
        piece = next(
            piece
            for table in ldc_db.version.all_tables()
            for piece in table.slice_links
            if piece.record_count >= 2
        )
        first = piece.min_key
        piece.min_key = piece.max_key
        with pytest.raises(CompactionError, match="not its window's"):
            movement.check_invariants()
        piece.min_key = first
        movement.check_invariants()
        piece._stop = piece._start
        with pytest.raises(CompactionError, match="is empty"):
            movement.check_invariants()

    def test_contents_preserved(self, ldc_db):
        model = fill(ldc_db, 3000, 700)
        assert dict(ldc_db.logical_items()) == model

    def test_merge_outputs_stay_in_level(self, tiny_config):
        """LDC merge outputs replace the target in its own level."""
        db = DB(config=tiny_config, policy="ldc")
        fill(db, 3000, 700, seed=2)
        policy = db.policy
        linked = next(
            (t for t in db.version.all_tables() if t.slice_links), None
        )
        if linked is None:
            pytest.skip("no linked table at end of run")
        level = db.version.level_of(linked)
        files_before = set()
        for lvl in range(db.version.num_levels):
            if lvl != level:
                files_before.update(t.file_id for t in db.version.files(lvl))
        policy.movement.merge(linked)
        files_after = set()
        for lvl in range(db.version.num_levels):
            if lvl != level:
                files_after.update(t.file_id for t in db.version.files(lvl))
        assert files_before == files_after  # other levels untouched

    def test_due_for_merge_byte_trigger(self, tiny_config):
        """due_for_merge fires at linked_bytes >= (T_s/fan_out) * size."""
        db = DB(
            config=tiny_config,
            policy=get_spec("ldc").derive(threshold=4),  # = fan_out
        )
        fill(db, 2500, 600, seed=4)
        policy = db.policy
        for table in db.version.all_tables():
            if table.slice_links and policy.movement.due_for_merge(table):
                threshold = policy.movement.threshold
                ratio = threshold / db.config.fan_out
                count_backstop = len(table.slice_links) >= 4 * threshold
                assert (
                    table.linked_bytes >= ratio * table.data_size or count_backstop
                )


class TestGapKeyRegression:
    """Regression: a slice can cover keys outside its carrier file's own
    [min, max] range (responsibility gaps).  Lookups must route by
    responsibility or such keys read stale versions from deeper levels.
    Found by the long mixed integration run; pinned here."""

    def test_gap_keys_read_newest_version(self, tiny_config):
        from repro.workload import WorkloadGenerator, rwb
        from repro.workload.ycsb import OP_DELETE, OP_GET, OP_PUT, OP_SCAN

        from tests.conftest import with_deletes

        db = DB(config=tiny_config, policy="ldc")
        spec = rwb(
            num_operations=6000,
            key_space=1500,
            value_bytes=48,
            preload_keys=1500,
            seed=33,
        )
        generator = WorkloadGenerator(spec)
        model = {}
        for op in generator.preload_operations():
            db.put(op.key, op.value)
            model[op.key] = op.value
        for op in with_deletes(generator.operations(), 20):
            if op.kind == OP_PUT:
                db.put(op.key, op.value)
                model[op.key] = op.value
            elif op.kind == OP_DELETE:
                db.delete(op.key)
                model.pop(op.key, None)
            elif op.kind == OP_GET:
                db.get(op.key)
            elif op.kind == OP_SCAN:
                db.scan(op.key, op.scan_length)
        mismatches = [key for key in model if db.get(key) != model[key]]
        assert mismatches == []


class TestSpaceManagement:
    def test_frozen_space_bounded_by_limit(self, tiny_config):
        config = tiny_config.with_overrides(frozen_space_limit_ratio=0.4)
        db = DB(config=config, policy="ldc")
        fill(db, 5000, 1200)
        live = db.version.total_data_size()
        frozen = db.policy.movement.frozen.space_bytes
        # The cap is enforced between rounds; allow one merge of slack.
        assert frozen <= 0.4 * live + 4 * config.sstable_target_bytes

    def test_forced_merges_counted(self, tiny_config):
        config = tiny_config.with_overrides(frozen_space_limit_ratio=0.05)
        db = DB(config=config, policy="ldc")
        fill(db, 4000, 1000)
        assert db.metrics().get("engine.forced_merges") > 0

    def test_extra_space_is_frozen_region(self, ldc_db):
        fill(ldc_db, 2000, 500)
        policy = ldc_db.policy
        assert policy.extra_space_bytes() == policy.movement.frozen.space_bytes


class TestThresholdConfiguration:
    def test_threshold_from_config(self, tiny_config):
        db = DB(config=tiny_config, policy="ldc")
        assert db.policy.movement.threshold == tiny_config.fan_out

    def test_threshold_override(self, tiny_config):
        db = DB(config=tiny_config, policy=get_spec("ldc").derive(threshold=7))
        assert db.policy.movement.threshold == 7

    def test_adaptive_override(self, tiny_config):
        db = DB(config=tiny_config, policy=get_spec("ldc").derive(adaptive=True))
        assert db.policy.movement._adaptive is not None

    def test_smaller_threshold_means_more_merges(self, tiny_config):
        counts = {}
        for threshold in (2, 16):
            db = DB(
                config=tiny_config,
                policy=get_spec("ldc").derive(threshold=threshold),
            )
            fill(db, 4000, 1000, seed=8)
            counts[threshold] = db.metrics().get("engine.merge_count")
        assert counts[2] > counts[16]


class TestPaperHeadlines:
    """The headline claims at unit-test scale, under the paper's fan-out.

    (At fan-out 3-4 the paper itself measures LDC's edge at its smallest —
    Fig. 12b reports +8.8% — so these shape tests use fan-out 10, the
    paper's default, where the per-round overlap gap is visible.)
    """

    @pytest.fixture
    def paper_config(self, tiny_config):
        return tiny_config.with_overrides(fan_out=10)

    def test_ldc_reduces_compaction_io(self, paper_config):
        io = {}
        for name in ("udc", "ldc"):
            db = DB(config=paper_config, policy=name)
            fill(db, 10_000, 3000, seed=12)
            io[name] = db.metrics().compaction_bytes_total
        assert io["ldc"] < io["udc"]

    def test_ldc_reduces_write_amplification(self, paper_config):
        amp = {}
        for name in ("udc", "ldc"):
            db = DB(config=paper_config, policy=name)
            fill(db, 10_000, 3000, seed=12)
            amp[name] = db.metrics().write_amplification
        assert amp["ldc"] < amp["udc"]

    def test_ldc_shrinks_max_compaction_round(self, paper_config):
        """Granularity: LDC's biggest single round moves fewer bytes."""
        biggest = {}
        for name in ("udc", "ldc"):
            db = DB(config=paper_config, policy=name)
            rng = random.Random(13)
            worst = 0
            for index in range(10_000):
                before = db.metrics().compaction_bytes_total
                db.put(key_of(rng.randrange(3000)), b"v" * 40)
                worst = max(worst, db.metrics().compaction_bytes_total - before)
            biggest[name] = worst
        assert biggest["ldc"] <= biggest["udc"]
