"""Unit tests for the version set (levels, overlaps, scoring)."""

import pytest

from repro.errors import EngineError
from repro.lsm.config import LSMConfig
from repro.lsm.keys import key_successor
from repro.lsm.record import put_record
from repro.lsm.sstable import SSTable
from repro.lsm.version import VersionSet

CONFIG = LSMConfig(
    memtable_bytes=2048,
    sstable_target_bytes=2048,
    block_bytes=512,
    fan_out=4,
    level1_capacity_bytes=4096,
    max_levels=5,
    l0_compaction_trigger=4,
)

_next_id = iter(range(1, 10_000))


def table_over(lo: int, hi: int, value_bytes: int = 10) -> SSTable:
    records = [
        put_record(str(i).zfill(6).encode(), b"v" * value_bytes, i)
        for i in range(lo, hi)
    ]
    return SSTable.from_records(next(_next_id), records, CONFIG)


@pytest.fixture
def version():
    return VersionSet(CONFIG)


class TestAddRemove:
    def test_add_to_level0_allows_overlap(self, version):
        version.add_file(0, table_over(0, 10))
        version.add_file(0, table_over(5, 15))
        assert version.num_files(0) == 2

    def test_sorted_level_rejects_overlap(self, version):
        version.add_file(1, table_over(0, 10))
        with pytest.raises(EngineError, match="overlaps"):
            version.add_file(1, table_over(5, 15))

    def test_sorted_level_keeps_key_order(self, version):
        version.add_file(1, table_over(20, 30))
        version.add_file(1, table_over(0, 10))
        version.add_file(1, table_over(40, 50))
        mins = [t.min_key for t in version.files(1)]
        assert mins == sorted(mins)

    def test_remove_file(self, version):
        table = table_over(0, 10)
        version.add_file(1, table)
        version.remove_file(1, table)
        assert version.num_files() == 0

    def test_remove_absent_raises(self, version):
        with pytest.raises(EngineError):
            version.remove_file(1, table_over(0, 5))

    def test_double_add_raises(self, version):
        table = table_over(0, 10)
        version.add_file(1, table)
        with pytest.raises(EngineError, match="already"):
            version.add_file(2, table)

    def test_frozen_file_rejected(self, version):
        table = table_over(0, 10)
        table.frozen = True
        with pytest.raises(EngineError, match="frozen"):
            version.add_file(1, table)

    def test_level_bounds_checked(self, version):
        with pytest.raises(EngineError):
            version.add_file(99, table_over(0, 5))

    def test_level_of(self, version):
        table = table_over(0, 10)
        version.add_file(2, table)
        assert version.level_of(table) == 2
        assert version.contains(table)
        version.remove_file(2, table)
        assert not version.contains(table)
        with pytest.raises(EngineError):
            version.level_of(table)


class TestSizesAndCounters:
    def test_level_data_size_tracks_adds_and_removes(self, version):
        a, b = table_over(0, 10), table_over(20, 30)
        version.add_file(1, a)
        version.add_file(1, b)
        assert version.level_data_size(1) == a.data_size + b.data_size
        version.remove_file(1, a)
        assert version.level_data_size(1) == b.data_size

    def test_total_data_size(self, version):
        a, b = table_over(0, 10), table_over(0, 10)
        version.add_file(0, a)
        version.add_file(2, b)
        assert version.total_data_size() == a.data_size + b.data_size

    def test_note_linked_bytes(self, version):
        table = table_over(0, 10)
        version.add_file(1, table)
        version.note_linked_bytes(1, 500)
        assert version.level_data_size(1) == table.data_size + 500
        version.note_linked_bytes(1, -500)
        assert version.level_data_size(1) == table.data_size

    def test_linked_bytes_underflow_raises(self, version):
        with pytest.raises(EngineError, match="underflow"):
            version.note_linked_bytes(1, -1)

    def test_deepest_nonempty_level(self, version):
        assert version.deepest_nonempty_level() == -1
        version.add_file(0, table_over(0, 5))
        version.add_file(3, table_over(10, 15))
        assert version.deepest_nonempty_level() == 3


class TestOverlapQueries:
    def test_overlapping_finds_intersections(self, version):
        a = table_over(0, 10)
        b = table_over(20, 30)
        version.add_file(1, a)
        version.add_file(1, b)
        lo = b"000005"
        hi = b"000025"
        assert version.overlapping(1, lo, hi) == [a, b]
        assert version.overlapping(1, b"000011", b"000019") == []

    def test_overlapping_unbounded(self, version):
        a = table_over(0, 10)
        version.add_file(1, a)
        assert version.overlapping(1, None, None) == [a]

    def test_result_is_a_fresh_list(self, version):
        version.add_file(1, table_over(0, 10))
        version.add_file(1, table_over(20, 30))
        version.overlapping(1, None, None).clear()
        assert version.num_files(1) == 2

    def test_level0_returned_in_age_order(self, version):
        a = table_over(0, 10)
        b = table_over(0, 10)
        version.add_file(0, b)
        version.add_file(0, a)
        result = version.overlapping(0, None, None)
        assert [t.file_id for t in result] == sorted(t.file_id for t in result)

    def test_responsible_file_need_not_cover_the_key(self, version):
        """Routing tiles the key space; the file's own range has gaps.

        A lookup routed here by a gap key may only find it in the file's
        linked slices — its own ``[min_key, max_key]`` excludes it.
        """
        a = table_over(0, 10)
        b = table_over(20, 30)
        version.add_file(1, a)
        version.add_file(1, b)

        def routed_and_covered(key):
            table = version.find_responsible_file(1, key)
            return table, table.covers_key(key)

        assert routed_and_covered(b"000005") == (a, True)
        assert routed_and_covered(b"000025") == (b, True)
        assert routed_and_covered(b"000015") == (b, False)  # gap
        assert routed_and_covered(b"999999") == (b, False)  # past the end

    def test_find_responsible_file_tiles_key_space(self, version):
        """Every key has a responsible file: gaps belong to the right
        neighbour, keys past the end to the last file (Example 3.2)."""
        a = table_over(10, 20)
        b = table_over(30, 40)
        version.add_file(1, a)
        version.add_file(1, b)
        assert version.find_responsible_file(1, b"000000") is a  # below all
        assert version.find_responsible_file(1, b"000015") is a  # inside a
        assert version.find_responsible_file(1, b"000025") is b  # gap -> right
        assert version.find_responsible_file(1, b"000035") is b  # inside b
        assert version.find_responsible_file(1, b"999999") is b  # past end

    def test_find_responsible_file_empty_level(self, version):
        assert version.find_responsible_file(1, b"k") is None

    def test_find_responsible_file_rejected_on_level0(self, version):
        with pytest.raises(EngineError):
            version.find_responsible_file(0, b"x")


class TestScoring:
    def test_level0_scores_by_file_count(self, version):
        for _ in range(2):
            version.add_file(0, table_over(0, 5))
        assert version.level_score(0) == pytest.approx(2 / 4)

    def test_deeper_levels_score_by_bytes(self, version):
        table = table_over(0, 100, value_bytes=30)
        version.add_file(1, table)
        expected = table.data_size / CONFIG.level_capacity_bytes(1)
        assert version.level_score(1) == pytest.approx(expected)

    def test_pick_compaction_level_none_when_in_shape(self, version):
        version.add_file(0, table_over(0, 5))
        assert version.pick_compaction_level() is None

    def test_pick_compaction_level_prefers_worst(self, version):
        for _ in range(5):  # score 5/4 at L0
            version.add_file(0, table_over(0, 5))
        table = table_over(0, 400, value_bytes=50)  # way over L1 cap
        version.add_file(1, table)
        assert version.pick_compaction_level() == 1

    def test_bottom_level_never_picked(self, version):
        big = table_over(0, 500, value_bytes=100)
        version.add_file(CONFIG.max_levels - 1, big)
        assert version.pick_compaction_level() is None


class TestRoundRobin:
    def test_level0_picks_oldest(self, version):
        newer = table_over(0, 5)
        older = table_over(0, 5)
        # Force ids out of insertion order.
        version.add_file(0, newer)
        version.add_file(0, older)
        oldest = min((newer, older), key=lambda t: t.file_id)
        assert version.pick_file_round_robin(0) is oldest

    def test_round_robin_sweeps_key_space(self, version):
        a = table_over(0, 10)
        b = table_over(20, 30)
        c = table_over(40, 50)
        for table in (a, b, c):
            version.add_file(1, table)
        first = version.pick_file_round_robin(1)
        version.advance_compact_pointer(1, first)
        second = version.pick_file_round_robin(1)
        version.advance_compact_pointer(1, second)
        third = version.pick_file_round_robin(1)
        version.advance_compact_pointer(1, third)
        wrapped = version.pick_file_round_robin(1)
        assert [first, second, third] == [a, b, c]
        assert wrapped is a

    def test_empty_level_raises(self, version):
        with pytest.raises(EngineError):
            version.pick_file_round_robin(1)


class TestInvariants:
    def test_clean_version_passes(self, version):
        version.add_file(0, table_over(0, 10))
        version.add_file(1, table_over(0, 10))
        version.add_file(1, table_over(20, 30))
        version.check_invariants()

    def test_counter_drift_detected(self, version):
        version.add_file(1, table_over(0, 10))
        version._level_bytes[1] += 1
        with pytest.raises(EngineError, match="counter"):
            version.check_invariants()

    def test_unsorted_mode_allows_overlap(self):
        version = VersionSet(CONFIG, sorted_levels=False)
        version.add_file(1, table_over(0, 10))
        version.add_file(1, table_over(5, 15))
        version.check_invariants()
        assert version.num_files(1) == 2
        with pytest.raises(EngineError):
            version.find_responsible_file(1, b"000007")
