"""The bisecting level queries against the linear ones they replaced.

``tests/_version_oracle.py`` holds the whole-level scans verbatim.  Here
Hypothesis draws sorted levels (and unsorted ones, which must stay on the
linear branch) together with queries aimed at the places a bisect can go
wrong — ``None`` bounds, empty and inverted intervals, keys in the gaps
between files, keys equal to a file's ``max_key`` or just past it, empty
and one-file levels, link sources reaching into the open-ended first and
last responsibility ranges — and requires the same answer, in the same
order, or the same error.
"""

from itertools import count
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.primitives import LDCLinkMergeMovement
from repro.errors import EngineError
from repro.lsm.config import LSMConfig
from repro.lsm.record import put_record
from repro.lsm.sstable import SSTable
from repro.lsm.version import VersionSet

from ._version_oracle import (
    linear_insert_index,
    linear_overlapping,
    linear_pick_file_round_robin,
    linear_remove_index,
    linear_slice_plan,
)

CONFIG = LSMConfig(max_levels=4)
LEVEL = 2
KEY_LIMIT = 150

_file_ids = count(1)


def key_of(number: int) -> bytes:
    return b"%04d" % number


def table_of(numbers) -> SSTable:
    records = [put_record(key_of(n), b"v", n + 1) for n in sorted(set(numbers))]
    return SSTable.from_records(next(_file_ids), records, CONFIG)


#: A sorted level as ``(gap, width)`` steps: each file starts ``gap`` keys
#: after the previous one ends and spans ``width`` more (0 = one key).
level_shapes = st.lists(
    st.tuples(st.integers(1, 6), st.integers(0, 5)), max_size=16
)
#: Query keys: on the integer grid the files use (so often a min or max
#: key, or in a gap) and, half the time, the successor of such a key.
query_keys = st.builds(
    lambda number, successor: key_of(number) + (b"\x00" if successor else b""),
    st.integers(0, KEY_LIMIT),
    st.booleans(),
)
bounds = st.one_of(st.none(), query_keys)
key_sets = st.lists(st.integers(0, KEY_LIMIT), min_size=1, max_size=8)


def sorted_version(shape) -> VersionSet:
    version = VersionSet(CONFIG)
    cursor = 0
    for gap, width in shape:
        version.add_file(LEVEL, table_of([cursor + gap, cursor + gap + width]))
        cursor += gap + width
    return version


def unsorted_version(ranges, level: int, sorted_levels: bool) -> VersionSet:
    version = VersionSet(CONFIG, sorted_levels=sorted_levels)
    for numbers in ranges:
        version.add_file(level, table_of(numbers))
    return version


def outcome(call):
    """A call's result, or the text of the EngineError it raised."""
    try:
        return call()
    except EngineError as error:
        return f"EngineError: {error}"


class TestOverlapping:
    @given(level_shapes, bounds, bounds)
    @settings(max_examples=300, deadline=None)
    def test_sorted_level_matches_linear(self, shape, lo, hi):
        version = sorted_version(shape)
        assert version.overlapping(LEVEL, lo, hi) == linear_overlapping(
            version, LEVEL, lo, hi
        )

    @given(st.lists(key_sets, max_size=8), bounds, bounds, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_unsorted_levels_keep_age_order(self, ranges, lo, hi, tiered):
        # Level 0 of a leveled tree, or any level of a tiered one.
        level = LEVEL if tiered else 0
        version = unsorted_version(ranges, level, sorted_levels=not tiered)
        assert version.overlapping(level, lo, hi) == linear_overlapping(
            version, level, lo, hi
        )

    def test_result_is_a_fresh_list(self):
        version = sorted_version([(1, 2), (1, 2)])
        version.overlapping(LEVEL, None, None).clear()
        assert version.num_files(LEVEL) == 2


class TestPickFileRoundRobin:
    @given(level_shapes.filter(bool), bounds)
    @settings(max_examples=200, deadline=None)
    def test_sorted_level_matches_linear(self, shape, pointer):
        version = sorted_version(shape)
        if pointer is not None:
            version.compact_pointer[LEVEL] = pointer
        assert version.pick_file_round_robin(LEVEL) is (
            linear_pick_file_round_robin(version, LEVEL)
        )

    @given(st.lists(key_sets, min_size=1, max_size=8), bounds)
    @settings(max_examples=100, deadline=None)
    def test_tiered_level_matches_linear(self, ranges, pointer):
        version = unsorted_version(ranges, LEVEL, sorted_levels=False)
        if pointer is not None:
            version.compact_pointer[LEVEL] = pointer
        assert version.pick_file_round_robin(LEVEL) is (
            linear_pick_file_round_robin(version, LEVEL)
        )

    def test_empty_level_raises_like_linear(self):
        version = VersionSet(CONFIG)
        assert outcome(lambda: version.pick_file_round_robin(LEVEL)) == outcome(
            lambda: linear_pick_file_round_robin(version, LEVEL)
        )


class TestAddFile:
    @given(level_shapes, st.integers(0, KEY_LIMIT), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_slot_or_overlap_error_matches_linear(self, shape, first, width):
        version = sorted_version(shape)
        before = list(version.files(LEVEL))
        table = table_of([first, first + width])
        expected = outcome(lambda: linear_insert_index(version, LEVEL, table))
        actual = outcome(lambda: version.add_file(LEVEL, table))
        if isinstance(expected, str):
            # Same neighbour named, and the level left as it was.
            assert actual == expected
            assert version.files(LEVEL) == before
        else:
            assert actual is None
            assert version.files(LEVEL).index(table) == expected
        version.check_invariants()


class TestRemoveFile:
    @given(level_shapes.filter(bool), st.data())
    @settings(max_examples=150, deadline=None)
    def test_removes_the_slot_list_index_found(self, shape, data):
        version = sorted_version(shape)
        files = version.files(LEVEL)
        table = data.draw(st.sampled_from(files))
        expected = linear_remove_index(version, LEVEL, table)
        remaining = files[:expected] + files[expected + 1:]
        version.remove_file(LEVEL, table)
        assert version.files(LEVEL) == remaining
        version.check_invariants()

    @given(level_shapes, st.data())
    @settings(max_examples=150, deadline=None)
    def test_absent_file_raises_the_same_error(self, shape, data):
        version = sorted_version(shape)
        files = version.files(LEVEL)
        # A stranger whose keys coincide with a resident's lands on that
        # resident's slot; identity, not key equality, must decide.
        if files and data.draw(st.booleans()):
            twin = data.draw(st.sampled_from(files))
            stranger = table_of([int(twin.min_key), int(twin.max_key)])
        else:
            stranger = table_of(data.draw(key_sets))
        expected = outcome(lambda: linear_remove_index(version, LEVEL, stranger))
        assert expected.startswith("EngineError")
        assert outcome(lambda: version.remove_file(LEVEL, stranger)) == expected
        assert version.num_files(LEVEL) == len(shape)

    @given(st.lists(key_sets, min_size=1, max_size=8), st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_unsorted_levels(self, ranges, data, tiered):
        level = LEVEL if tiered else 0
        version = unsorted_version(ranges, level, sorted_levels=not tiered)
        files = version.files(level)
        table = data.draw(st.sampled_from(files))
        expected = linear_remove_index(version, level, table)
        remaining = files[:expected] + files[expected + 1:]
        version.remove_file(level, table)
        assert version.files(level) == remaining
        stranger = table_of([int(table.min_key), int(table.max_key)])
        with pytest.raises(EngineError, match="is not present in level"):
            version.remove_file(level, stranger)


class TestSlicePlan:
    @staticmethod
    def movement_over(version) -> LDCLinkMergeMovement:
        movement = LDCLinkMergeMovement()
        movement.db = SimpleNamespace(version=version)
        return movement

    @given(level_shapes, key_sets)
    @settings(max_examples=300, deadline=None)
    def test_matches_linear(self, shape, source_keys):
        version = sorted_version(shape)
        source = table_of(source_keys)
        plan = self.movement_over(version)._slice_plan(source, LEVEL)
        assert plan == linear_slice_plan(version, source, LEVEL)

    @given(level_shapes.filter(bool))
    @settings(max_examples=50, deadline=None)
    def test_source_spanning_both_open_ends(self, shape):
        """Keys below the first file and above the last still find owners."""
        version = sorted_version(shape)
        last = int(version.files(LEVEL)[-1].max_key)
        numbers = {0, last // 2, last + 3}
        source = table_of(numbers)
        plan = self.movement_over(version)._slice_plan(source, LEVEL)
        assert plan == linear_slice_plan(version, source, LEVEL)
        assert plan[0][1] is None and plan[-1][2] is None
        covered = sum(source.count_in_range(lo, hi) for _, lo, hi in plan)
        assert covered == len(numbers)
