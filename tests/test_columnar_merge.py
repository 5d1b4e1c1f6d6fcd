"""Pair-run: the pooled compaction merge against the galloping oracle.

:func:`repro.lsm.compaction.columnar.merge_windows` pools its input
windows, sorts once and keeps the last record per key.  The merge it
replaced — a heap of stream heads that galloped over disjoint runs,
resolved equal head keys by sequence number and fell back to a pooled
sort when the streams turned out finely interleaved — lives on verbatim
in ``tests/_merge_oracle.py``.  Both run on the same inputs here and must
agree on keys, records and sizes for every input shape: disjoint runs,
interleaved runs, fully colliding streams, windows that view only an
inner ``[start, stop)`` range of their source, empty windows, tombstones,
variable key and value lengths, and 1-12 streams.  The oracle's sequence
column (which the pooled merge no longer emits) must be the surviving
records' own ``seq``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slice import Slice
from repro.lsm.compaction.columnar import merge_windows
from repro.lsm.record import KIND_DELETE, delete_record, put_record
from repro.lsm.sstable import SSTable

from ._merge_oracle import merge_windows as oracle_merge, oracle_window


def window_for(records, start=0, stop=None):
    """A window over a key-sorted record list (full width by default)."""
    keys = [record.key for record in records]
    return keys, records, start, len(records) if stop is None else stop


def random_streams(rng, nstreams, universe, max_len):
    """Key-sorted streams with unique keys per stream, unique seqs globally."""
    seq = 0
    streams = []
    for _ in range(nstreams):
        count = rng.randrange(max_len + 1)
        keys = sorted(rng.sample(universe, min(count, len(universe))))
        records = []
        for key in keys:
            seq += 1
            if rng.random() < 0.15:
                records.append(delete_record(key, seq))
            else:
                records.append(put_record(key, rng.randbytes(rng.randrange(12)), seq))
        streams.append(records)
    return streams


def assert_matches_oracle(windows):
    expected_keys, expected, expected_seqs, expected_sizes = oracle_merge(
        [oracle_window(window) for window in windows]
    )
    keys, records, sizes = merge_windows(windows)
    assert records == expected
    assert keys == expected_keys == [record.key for record in records]
    assert sizes == expected_sizes == [record.encoded_size for record in records]
    assert expected_seqs == [record.seq for record in records]
    return records


# ----------------------------------------------------------------------
# Hypothesis: windows of every shape
# ----------------------------------------------------------------------
@st.composite
def merge_inputs(draw):
    """1-12 windows over streams whose seqs are unique across the input.

    ``shape`` decides how the streams' keys relate: ``disjoint`` gives
    each stream one contiguous key range and ``runs`` deals runs of
    ``run`` consecutive keys round-robin (the oracle gallops, and with
    long runs stays galloping past its 24-round probe), ``colliding``
    gives every stream every key (the oracle resolves a tie per output
    record), ``mixed`` draws each stream's keys independently from a
    shared universe (the oracle hands over to its pooled remainder).
    Streams may be empty, and a window may view only a drawn ``[start,
    stop)`` of its stream.  Hypothesis draws the structure; the record
    contents (values, tombstones, which stream holds the newer version)
    come from a drawn seed, to keep large inputs inside its data budget.
    """
    nstreams = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["disjoint", "runs", "colliding", "mixed"]))
    universe = draw(st.integers(1, 400))
    width = draw(st.integers(1, 6))
    run = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = sorted(
        b"%0*d" % (width, index) + b"k" * (index % 3) for index in range(universe)
    )
    seqs = list(range(1, nstreams * universe + 1))
    rng.shuffle(seqs)
    per_stream = -(-universe // nstreams)
    windows = []
    for stream in range(nstreams):
        if shape == "colliding":
            chosen = range(universe)
        elif shape == "disjoint":
            chosen = range(
                stream * per_stream, min(universe, (stream + 1) * per_stream)
            )
        elif shape == "runs":
            chosen = [
                index for index in range(universe)
                if index // run % nstreams == stream
            ]
        else:
            chosen = sorted(rng.sample(range(universe), rng.randrange(universe + 1)))
        records = [
            delete_record(names[index], seqs.pop())
            if rng.random() < 0.15
            else put_record(names[index], rng.randbytes(rng.randrange(10)), seqs.pop())
            for index in chosen
        ]
        start, stop = 0, len(records)
        if draw(st.booleans()):
            start = draw(st.integers(0, stop))
            stop = draw(st.integers(start, stop))
        windows.append(window_for(records, start, stop))
    return windows


class TestPooledMergeEqualsGallopingOracle:
    @settings(max_examples=300, deadline=None)
    @given(merge_inputs())
    def test_same_keys_records_and_sizes(self, windows):
        records = assert_matches_oracle(windows)
        keys = [record.key for record in records]
        assert keys == sorted(set(keys))

    @settings(max_examples=60, deadline=None)
    @given(merge_inputs(), st.integers(0, 2**32 - 1))
    def test_window_order_does_not_matter(self, windows, seed):
        shuffled = list(windows)
        random.Random(seed).shuffle(shuffled)
        assert merge_windows(shuffled) == merge_windows(windows)


# ----------------------------------------------------------------------
# Named shapes
# ----------------------------------------------------------------------
class TestMergeWindows:
    def test_empty_input(self):
        assert merge_windows([]) == ([], [], [])
        assert oracle_merge([]) == ([], [], [], [])

    def test_all_windows_empty(self):
        empty = window_for([])
        assert merge_windows([empty, empty]) == ([], [], [])
        assert_matches_oracle([empty, empty])

    def test_single_stream_passthrough(self):
        records = [
            put_record(b"a", b"x", 1),
            delete_record(b"b", 2),
            put_record(b"c", b"y", 3),
        ]
        assert assert_matches_oracle([window_for(records)]) == records

    def test_newest_wins_on_collision(self):
        old = [put_record(b"k", b"old", 1)]
        new = [delete_record(b"k", 9)]
        keys, records, sizes = merge_windows([window_for(old), window_for(new)])
        assert records == new
        assert records[0].kind == KIND_DELETE
        assert sizes == [new[0].size]
        assert merge_windows([window_for(new), window_for(old)])[1] == new

    def test_every_stream_holds_every_key(self):
        # Maximal collision pressure: every output record goes through the
        # oracle's tie-resolution path.
        universe = [b"k%03d" % index for index in range(40)]
        windows = []
        seq = 0
        for _ in range(5):
            records = []
            for key in universe:
                seq += 1
                records.append(put_record(key, b"v%d" % seq, seq))
            windows.append(window_for(records))
        merged = assert_matches_oracle(windows)
        assert [record.seq for record in merged] == list(range(161, 201))

    def test_disjoint_runs_gallop(self):
        # Fully disjoint key ranges: the oracle reduces to bulk copies,
        # the pooled sort to Timsort's run detection — same stream.
        streams = [
            [put_record(b"a%02d" % index, b"", index + 1) for index in range(20)],
            [put_record(b"b%02d" % index, b"", index + 100) for index in range(20)],
            [put_record(b"c%02d" % index, b"", index + 200) for index in range(20)],
        ]
        merged = assert_matches_oracle([window_for(records) for records in streams])
        assert merged == streams[0] + streams[1] + streams[2]

    def test_window_offsets_respected(self):
        # A window over [start, stop) must ignore records outside it —
        # the LDC slice view case.
        records = [put_record(b"k%02d" % index, b"v", index + 1) for index in range(10)]
        window = window_for(records, 3, 7)
        merged_keys, merged_records, merged_sizes = merge_windows([window])
        assert merged_records == records[3:7]
        assert merged_keys == window[0][3:7]
        assert merged_sizes == [record.size for record in records[3:7]]
        assert_matches_oracle([window])

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_equivalence(self, seed):
        rng = random.Random(seed)
        universe = [b"key-%04d" % index for index in range(rng.choice([15, 60, 300]))]
        streams = random_streams(
            rng,
            nstreams=rng.randrange(1, 7),
            universe=universe,
            max_len=rng.choice([5, 40, 150]),
        )
        assert_matches_oracle([window_for(records) for records in streams])

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_with_offset_windows(self, seed):
        rng = random.Random(1000 + seed)
        universe = [b"key-%04d" % index for index in range(80)]
        streams = random_streams(rng, nstreams=4, universe=universe, max_len=60)
        windows = []
        for records in streams:
            start = rng.randrange(len(records) + 1)
            end = rng.randrange(start, len(records) + 1)
            windows.append(window_for(records, start, end))
        assert_matches_oracle(windows)

    def test_sstable_windows_roundtrip(self):
        # End-to-end over real SSTable and Slice windows.
        rng = random.Random(42)
        universe = [b"key-%04d" % index for index in range(120)]
        streams = [
            records
            for records in random_streams(rng, nstreams=3, universe=universe, max_len=80)
            if records
        ]
        tables = [
            SSTable(file_id, records, block_bytes=256, bloom_bits_per_key=8)
            for file_id, records in enumerate(streams, start=1)
        ]
        assert_matches_oracle([table.columns_window() for table in tables])
        windows = [tables[0].columns_window()]
        for link_seq, table in enumerate(tables[1:], start=1):
            table.frozen = True
            piece = Slice(table, universe[20], universe[90], link_seq)
            assert piece.columns_window()[1][piece._start:piece._stop] == list(
                piece.records()
            )
            windows.append(piece.columns_window())
        merged = assert_matches_oracle(windows)
        assert {record.key for record in merged} == {
            record.key for record in streams[0]
        } | {
            record.key
            for records in streams[1:]
            for record in records
            if universe[20] <= record.key < universe[90]
        }
