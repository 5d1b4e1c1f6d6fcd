"""Unit tests for slices and SliceLinks."""

import pytest

from repro.core.slice import Slice, attach_slice, detach_all_slices
from repro.errors import EngineError
from repro.lsm.config import LSMConfig
from repro.lsm.iterators import unit_windows
from repro.lsm.keys import key_successor
from repro.lsm.record import put_record
from repro.lsm.sstable import SSTable

CONFIG = LSMConfig(
    memtable_bytes=2048,
    sstable_target_bytes=2048,
    block_bytes=256,
)

_ids = iter(range(1, 1000))


def frozen_table(lo: int, hi: int) -> SSTable:
    records = [
        put_record(str(i).zfill(6).encode(), b"v" * 20, i) for i in range(lo, hi)
    ]
    table = SSTable.from_records(next(_ids), records, CONFIG)
    table.frozen = True
    return table


def active_table(lo: int, hi: int) -> SSTable:
    records = [
        put_record(str(i).zfill(6).encode(), b"v" * 20, i) for i in range(lo, hi)
    ]
    return SSTable.from_records(next(_ids), records, CONFIG)


class TestSlice:
    def test_requires_frozen_source(self):
        with pytest.raises(EngineError, match="frozen"):
            Slice(active_table(0, 10), None, None, link_seq=1)

    def test_size_and_count_reflect_range(self):
        source = frozen_table(0, 100)
        piece = Slice(source, b"000020", b"000030", link_seq=1)
        assert piece.record_count == 10
        assert piece.size_bytes == source.bytes_in_range(b"000020", b"000030")

    def test_full_range_slice(self):
        source = frozen_table(0, 50)
        piece = Slice(source, None, None, link_seq=1)
        assert piece.record_count == 50
        assert piece.size_bytes == source.data_size

    def test_point_lookup_respects_bounds(self):
        source = frozen_table(0, 100)
        piece = Slice(source, b"000020", b"000030", link_seq=1)
        assert piece.get(b"000025") is not None
        assert piece.get(b"000050") is None  # in source, outside slice
        assert piece.covers_key(b"000020")
        assert not piece.covers_key(b"000030")  # hi is exclusive

    def test_records_sorted_within_range(self):
        source = frozen_table(0, 100)
        piece = Slice(source, b"000010", b"000015", link_seq=1)
        assert [r.key for r in piece.records()] == [
            str(i).zfill(6).encode() for i in range(10, 15)
        ]

    def test_scan_window_intersects(self):
        """A scan from ``lo`` reads the slice's cached window narrowed to ``lo``."""
        source = frozen_table(0, 100)
        piece = Slice(source, b"000010", b"000050", link_seq=1)
        target = active_table(100, 110)
        attach_slice(target, piece)
        _, (keys, records, pos, stop, start, owner) = unit_windows(target, b"000040")
        assert keys[pos:stop] == [str(i).zfill(6).encode() for i in range(40, 50)]
        assert records[pos:stop] == piece.records()[30:]
        assert start == pos and owner is source
        # From left of the slice: the whole slice, nothing of the source before it.
        assert unit_windows(target, b"000000")[1][2:4] == [10, 50]

    def test_read_cost_bounded_by_file_and_at_least_data(self):
        source = frozen_table(0, 200)
        piece = Slice(source, b"000050", b"000060", link_seq=1)
        cost = piece.read_block_bytes()
        assert piece.size_bytes <= cost <= source.data_size

    def test_point_read_cost(self):
        """A lookup reads one source block for a covered key, none otherwise."""
        source = frozen_table(0, 200)
        piece = Slice(source, b"000050", b"000060", link_seq=1)
        assert piece.covers_key(b"000055")
        record, _block, nbytes = source.locate(b"000055")
        assert record is piece.get(b"000055") and nbytes > 0
        # In the source but outside the slice: the lookup never asks.
        assert not piece.covers_key(b"000070")
        assert piece.get(b"000070") is None
        # Covered by a slice wider than its source: no block, no charge.
        wide = Slice(source, None, None, link_seq=2)
        assert wide.covers_key(b"000900") and source.locate(b"000900") is None

    def test_scan_cost_zero_outside(self):
        """A scan starting right of the slice finds an empty window: no blocks."""
        source = frozen_table(0, 100)
        piece = Slice(source, b"000010", b"000020", link_seq=1)
        target = active_table(100, 110)
        attach_slice(target, piece)
        _, _, pos, stop, _, _ = unit_windows(target, b"000050")[1]
        assert pos == stop and source.block_span(pos, stop) == (0, 0)


class TestAttachDetach:
    def test_attach_updates_linked_bytes(self):
        target = active_table(0, 10)
        source = frozen_table(10, 30)
        piece = Slice(source, b"000010", b"000020", link_seq=1)
        attach_slice(target, piece)
        assert target.slice_links == [piece]
        assert target.linked_bytes == piece.size_bytes

    def test_attach_to_frozen_target_rejected(self):
        target = frozen_table(0, 10)
        source = frozen_table(10, 30)
        piece = Slice(source, None, None, link_seq=1)
        with pytest.raises(EngineError):
            attach_slice(target, piece)

    def test_detach_all(self):
        target = active_table(0, 10)
        source = frozen_table(10, 30)
        for seq in range(3):
            attach_slice(target, Slice(source, None, None, link_seq=seq))
        detached = detach_all_slices(target)
        assert len(detached) == 3
        assert target.slice_links == []
        assert target.linked_bytes == 0

    def test_newest_first_ordering(self):
        target = active_table(0, 10)
        source = frozen_table(10, 30)
        pieces = [Slice(source, None, None, link_seq=seq) for seq in (2, 9, 5)]
        for piece in pieces:
            attach_slice(target, piece)
        ordered = target.links_newest_first()
        assert [p.link_seq for p in ordered] == [9, 5, 2]
