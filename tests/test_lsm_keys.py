"""Unit and property tests for key-range helpers."""

from hypothesis import given, strategies as st

from repro.lsm.keys import in_range, key_successor

keys = st.binary(min_size=1, max_size=8)
maybe_key = st.one_of(st.none(), keys)


class TestSuccessor:
    def test_successor_is_strictly_greater(self):
        assert key_successor(b"abc") > b"abc"

    @given(keys, keys)
    def test_successor_is_immediate(self, key, other):
        """No byte string sits strictly between key and its successor."""
        successor = key_successor(key)
        assert not key < other < successor

    @given(keys)
    def test_half_open_conversion(self, key):
        """(a, b] == [succ(a), succ(b)) at the boundaries."""
        successor = key_successor(key)
        # key itself is excluded from [successor, ...).
        assert not in_range(key, successor, None)
        # key is included in [..., succ(key)).
        assert in_range(key, None, successor)


class TestInRange:
    def test_unbounded(self):
        assert in_range(b"x", None, None)

    def test_lower_bound_inclusive(self):
        assert in_range(b"b", b"b", None)
        assert not in_range(b"a", b"b", None)

    def test_upper_bound_exclusive(self):
        assert not in_range(b"c", None, b"c")
        assert in_range(b"b", None, b"c")

    @given(keys, maybe_key, maybe_key)
    def test_matches_naive_definition(self, key, lo, hi):
        expected = (lo is None or key >= lo) and (hi is None or key < hi)
        assert in_range(key, lo, hi) == expected
