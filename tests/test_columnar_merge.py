"""The pooled compaction merge against a model of what it must compute.

:func:`repro.lsm.compaction.columnar.merge_windows` pools its input
windows, sorts once and keeps the last record per key.  Each named shape
here checks its output against the model — every window's
``[start, stop)`` records pooled, the newest sequence number per key, in
key order — with the sizes read off the records: disjoint runs, fully
colliding streams, inner windows, empty windows, tombstones and seeded
random streams.  The merge's answers over a wider corpus (1-12 streams of
every shape, window order shuffled) are frozen in
``tests/test_retired_oracles.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.slice import Slice
from repro.lsm.compaction.columnar import merge_windows
from repro.lsm.record import KIND_DELETE, delete_record, put_record
from repro.lsm.sstable import SSTable


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


def newest_per_key(windows) -> list:
    """The model: the newest record of each key in the windows, in key order."""
    newest = {}
    for _, records, start, stop in windows:
        for record in records[start:stop]:
            if record.key not in newest or record.seq > newest[record.key].seq:
                newest[record.key] = record
    return [newest[key] for key in sorted(newest)]


def assert_matches_model(windows):
    keys, records, sizes = merge_windows(windows)
    assert records == newest_per_key(windows)
    assert keys == [record.key for record in records]
    assert sizes == [record.encoded_size for record in records]
    return records


# ----------------------------------------------------------------------
# Named shapes
# ----------------------------------------------------------------------
class TestMergeWindows:
    def test_empty_input(self):
        assert merge_windows([]) == ([], [], [])

    def test_all_windows_empty(self):
        empty = window_for([])
        assert merge_windows([empty, empty]) == ([], [], [])
        assert_matches_model([empty, empty])

    def test_single_stream_passthrough(self):
        records = [
            put_record(b"a", b"x", 1),
            delete_record(b"b", 2),
            put_record(b"c", b"y", 3),
        ]
        assert assert_matches_model([window_for(records)]) == records

    def test_newest_wins_on_collision(self):
        old = [put_record(b"k", b"old", 1)]
        new = [delete_record(b"k", 9)]
        keys, records, sizes = merge_windows([window_for(old), window_for(new)])
        assert records == new
        assert records[0].kind == KIND_DELETE
        assert sizes == [new[0].size]
        assert merge_windows([window_for(new), window_for(old)])[1] == new

    def test_every_stream_holds_every_key(self):
        # Maximal collision pressure: every output record is a tie.
        universe = [b"k%03d" % index for index in range(40)]
        windows = []
        seq = 0
        for _ in range(5):
            records = []
            for key in universe:
                seq += 1
                records.append(put_record(key, b"v%d" % seq, seq))
            windows.append(window_for(records))
        merged = assert_matches_model(windows)
        assert [record.seq for record in merged] == list(range(161, 201))

    def test_disjoint_runs_gallop(self):
        # Fully disjoint key ranges: Timsort's run detection sees each
        # stream as one run.
        streams = [
            [put_record(b"a%02d" % index, b"", index + 1) for index in range(20)],
            [put_record(b"b%02d" % index, b"", index + 100) for index in range(20)],
            [put_record(b"c%02d" % index, b"", index + 200) for index in range(20)],
        ]
        merged = assert_matches_model([window_for(records) for records in streams])
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
        assert_matches_model([window])

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
        assert_matches_model([window_for(records) for records in streams])

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
        assert_matches_model(windows)

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
        assert_matches_model([table.columns_window() for table in tables])
        windows = [tables[0].columns_window()]
        for link_seq, table in enumerate(tables[1:], start=1):
            table.frozen = True
            piece = Slice(table, universe[20], universe[90], link_seq)
            assert piece.columns_window()[1][piece._start:piece._stop] == list(
                piece.records()
            )
            windows.append(piece.columns_window())
        merged = assert_matches_model(windows)
        assert {record.key for record in merged} == {
            record.key for record in streams[0]
        } | {
            record.key
            for records in streams[1:]
            for record in records
            if universe[20] <= record.key < universe[90]
        }
