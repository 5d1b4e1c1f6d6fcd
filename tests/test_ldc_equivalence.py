"""LDC's round bookkeeping against the whole-level scans it replaced.

``tests/_ldc_oracle.py`` holds the old link-source pick (filter the
level, sort by ``min_key``) and slice pricing (re-bisect ``lo`` / ``hi``).
Two LDC stores are built identically and written identically, one
deciding through the code under test and one through the oracle.  After
*every* write they must agree on the clock to the bit, every counter and
gauge, the level layout, and the per-round log — which file each link
froze, which table each merge consumed, and the ``run_sizes`` each merge
read.  A frozen-space cap small enough to force merges most rounds,
fixed value sizes and one background thread are among the drawn
configurations; both stores pick forced merges the same way.

Between writes the live structures are also queried directly: every
level's link source and every slice's price must equal the oracle's on
the same tree.  ``TestDirected`` pins the frozen-space valve's pick: the
table that has held links longest.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DB, get_spec
from repro.lsm.config import LSMConfig
from repro.ssd.metrics import COMPACTION_READ

from . import _ldc_oracle as oracle

MAX_INDEX = 200


def tiny(frozen_ratio: float, bg_threads: int = 0) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=512,
        sstable_target_bytes=512,
        block_bytes=128,
        fan_out=3,
        level1_capacity_bytes=1024,
        max_levels=5,
        frozen_space_limit_ratio=frozen_ratio,
        bg_threads=bg_threads,
    )


def make_key(index: int) -> bytes:
    return b"key-%04d" % index


def record_rounds(db: DB) -> list:
    """Log each link's source, each merge's target and each merge read."""
    log = []
    movement = db.policy.movement
    link, merge, read_runs = movement.link, movement.merge, db.device.read_runs

    def logged_link(source, level):
        log.append(("link", level, source.file_id))
        link(source, level)

    def logged_merge(target):
        log.append(("merge", target.file_id, target.linked_bytes))
        merge(target)

    def logged_read_runs(run_sizes, category, **kwargs):
        if category == COMPACTION_READ:
            log.append(("runs", tuple(run_sizes)))
        return read_runs(run_sizes, category, **kwargs)

    movement.link = logged_link
    movement.merge = logged_merge
    db.device.read_runs = logged_read_runs
    return log


def observable_state(db: DB, log: list) -> tuple:
    return (
        db.clock.now(),
        db.registry.counters(),
        db.registry.gauges(),
        [[table.file_id for table in files] for files in db.version.levels],
        list(db.policy.movement._linked_tables),
        log,
    )


def assert_queries_match_oracle(db: DB) -> None:
    """The live link sources and slice prices equal the oracle's."""
    movement, selector = db.policy.movement, db.policy.selector
    for level in range(db.version.num_levels - 1):
        assert selector._pick_link_source(level) is oracle.pick_link_source(
            selector, level
        )
    for table in movement._linked_tables.values():
        for piece in table.slice_links:
            assert piece.read_block_bytes() == oracle.read_block_bytes(piece)


class Pair:
    """An LDC store beside its oracle-deciding twin."""

    def __init__(self, config: LSMConfig, threshold: int = 3):
        policy = get_spec("ldc").derive(threshold=threshold)
        self.new = DB(config=config, policy=policy)
        self.old = DB(config=config, policy=policy)
        oracle.install(self.old)
        self.new_log = record_rounds(self.new)
        self.old_log = record_rounds(self.old)

    def put(self, key: bytes, value: bytes) -> None:
        self.new.put(key, value)
        self.old.put(key, value)
        assert observable_state(self.new, self.new_log) == observable_state(
            self.old, self.old_log
        )
        assert_queries_match_oracle(self.new)


writes = st.lists(
    st.tuples(st.integers(0, MAX_INDEX), st.sampled_from((0, 24, 48, 96))),
    min_size=1,
    max_size=120,
)


@pytest.mark.parametrize("bg_threads", (0, 1))
class TestAgainstTheLevelScans:
    @given(
        writes=writes,
        frozen_ratio=st.sampled_from((0.02, 0.1, 0.5)),
        threshold=st.integers(2, 5),
        seed=st.integers(0, 3),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_rounds_and_charges(
        self, bg_threads, writes, frozen_ratio, threshold, seed
    ):
        pair = Pair(tiny(frozen_ratio, bg_threads), threshold)
        rng = random.Random(seed)
        for _ in range(300):
            pair.put(make_key(rng.randrange(MAX_INDEX)), b"p" * 40)
        for index, size in writes:
            pair.put(make_key(index), b"w" * size)
        pair.new.check_invariants()


@pytest.mark.parametrize("bg_threads", (0, 1))
class TestDirected:
    def test_forced_merges_take_the_table_linked_first(self, bg_threads):
        """A tiny cap makes most rounds a forced merge; each one takes the
        linked table whose first slice has the smallest ``link_seq``."""
        db = DB(
            config=tiny(0.02, bg_threads),
            policy=get_spec("ldc").derive(threshold=6),
        )
        policy, movement = db.policy, db.policy.movement
        bump, merge = policy.bump, movement.merge
        forcing, picks = [], []

        def noted_bump(name, amount=1):
            if name == "forced_merges":
                forcing.append(name)
            bump(name, amount)

        def checked_merge(target):
            if forcing:
                forcing.clear()
                first = min(
                    movement._linked_tables.values(),
                    key=lambda table: table.slice_links[0].link_seq,
                )
                picks.append(target is first)
            merge(target)

        policy.bump, movement.merge = noted_bump, checked_merge
        rng = random.Random(4)
        for _ in range(2_500):
            db.put(make_key(rng.randrange(MAX_INDEX)), b"t" * 32)
        assert len(picks) == db.metrics()["engine.forced_merges"] > 50
        assert all(picks)
        db.check_invariants()
