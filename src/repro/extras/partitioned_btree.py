"""A partitioned B-tree with LDC-style linked absorption (§V extension).

Graefe's partitioned B-tree [21] keeps a large *main* partition plus small
*side* partitions that absorb bulk writes cheaply; periodically the side
partitions are merged into the main partition.  The paper's §V claims LDC
transfers to this structure: instead of one giant partition merge, freeze
the side partitions, *link* their key-range slices onto the main
partition's leaves, and merge each leaf only when it has accumulated about
a leaf's worth of linked data.

This module implements both absorption strategies over the same simulated
device so the claim is measurable:

* :class:`EagerAbsorb` — the classical scheme: when enough side partitions
  have accumulated, merge them *all* into the main partition in one pass
  (read + rewrite the whole main).  Low bookkeeping, huge merge
  granularity.
* :class:`LinkedAbsorb` — the LDC transfer: freeze side partitions, link
  slices onto leaves by responsibility range, merge per-leaf at a byte
  threshold, recycle frozen partitions by refcount.

The structure is deliberately a *B-tree*, not an LSM-tree: there is one
sorted main partition of fixed-size leaves, side partitions are flat
sorted runs, and reads bin-search the main leaves directly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import EngineError
from ..obs.snapshot import MetricsSnapshot
from ..ssd.device import SimulatedSSD
from ..ssd.metrics import COMPACTION_READ, COMPACTION_WRITE, FLUSH_WRITE, USER_READ
from ..ssd.profile import ENTERPRISE_PCIE

_RECORD_OVERHEAD = 13


def _record_size(key: bytes, value: bytes) -> int:
    return len(key) + len(value) + _RECORD_OVERHEAD


class BTreeLeaf:
    """One leaf of the main partition: a sorted run of (key, seq, value)."""

    __slots__ = ("keys", "seqs", "values", "size_bytes", "linked", "linked_bytes")

    def __init__(self, records: List[Tuple[bytes, int, bytes]]) -> None:
        if not records:
            raise EngineError("a leaf must hold at least one record")
        self.keys = [record[0] for record in records]
        self.seqs = [record[1] for record in records]
        self.values = [record[2] for record in records]
        self.size_bytes = sum(_record_size(k, v) for k, _, v in records)
        #: LDC state: slices of frozen side partitions linked to this leaf.
        self.linked: List["_SliceRef"] = []
        self.linked_bytes = 0

    @property
    def min_key(self) -> bytes:
        return self.keys[0]

    @property
    def max_key(self) -> bytes:
        return self.keys[-1]

    def get(self, key: bytes) -> Optional[Tuple[int, bytes]]:
        index = bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.seqs[index], self.values[index]
        return None

    def records(self) -> Iterator[Tuple[bytes, int, bytes]]:
        return zip(self.keys, self.seqs, self.values)


class _SidePartition:
    """A flat sorted run absorbing a burst of writes."""

    __slots__ = ("records", "size_bytes", "refcount", "frozen")

    def __init__(self, records: List[Tuple[bytes, int, bytes]]) -> None:
        self.records = records
        self.size_bytes = sum(_record_size(k, v) for k, _, v in records)
        self.refcount = 0
        self.frozen = False

    def get(self, key: bytes) -> Optional[Tuple[int, bytes]]:
        keys = [record[0] for record in self.records]
        index = bisect_left(keys, key)
        if index < len(self.records) and self.records[index][0] == key:
            return self.records[index][1], self.records[index][2]
        return None

    def records_in_range(
        self, lo: Optional[bytes], hi: Optional[bytes]
    ) -> List[Tuple[bytes, int, bytes]]:
        keys = [record[0] for record in self.records]
        start = 0 if lo is None else bisect_left(keys, lo)
        stop = len(keys) if hi is None else bisect_left(keys, hi)
        return self.records[start:stop]


class _SliceRef:
    """A key-subrange view of a frozen side partition, linked to a leaf."""

    __slots__ = ("source", "lo", "hi", "link_seq", "size_bytes")

    def __init__(
        self,
        source: _SidePartition,
        lo: Optional[bytes],
        hi: Optional[bytes],
        link_seq: int,
    ) -> None:
        self.source = source
        self.lo = lo
        self.hi = hi
        self.link_seq = link_seq
        self.size_bytes = sum(
            _record_size(k, v) for k, _, v in source.records_in_range(lo, hi)
        )

    def covers(self, key: bytes) -> bool:
        if self.lo is not None and key < self.lo:
            return False
        return self.hi is None or key < self.hi

    def get(self, key: bytes) -> Optional[Tuple[int, bytes]]:
        if not self.covers(key):
            return None
        return self.source.get(key)

    def records(self) -> List[Tuple[bytes, int, bytes]]:
        return self.source.records_in_range(self.lo, self.hi)


class _AbsorbPolicy:
    """Strategy for moving side-partition data into the main partition."""

    name = "abstract"

    def attach(self, tree: "PartitionedBTree") -> None:
        self.tree = tree

    def absorb(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def maintain(self) -> None:
        """One background maintenance round, called once per operation."""

    def lookup_extra(self, leaf: BTreeLeaf, key: bytes) -> Optional[Tuple[int, bytes]]:
        """Check policy-held data newer than the leaf (LDC slices)."""
        return None

    def extra_space_bytes(self) -> int:
        return 0


class EagerAbsorb(_AbsorbPolicy):
    """Classical absorption: merge every side partition into the whole main.

    One pass reads the entire main partition plus all side partitions and
    rewrites the main — maximal granularity, the analogue of the paper's
    UDC/lazy criticism applied to B-trees.
    """

    name = "eager"

    def absorb(self) -> None:
        tree = self.tree
        device = tree.device
        sides = tree.side_partitions
        if not sides:
            return
        for leaf in tree.leaves:
            device.read(leaf.size_bytes, COMPACTION_READ, sequential=True)
        for side in sides:
            device.read(side.size_bytes, COMPACTION_READ, sequential=True)
        merged: Dict[bytes, Tuple[int, bytes]] = {}
        for leaf in tree.leaves:
            for key, seq, value in leaf.records():
                merged[key] = (seq, value)
        for side in sides:
            for key, seq, value in side.records:
                if key not in merged or seq > merged[key][0]:
                    merged[key] = (seq, value)
        records = [(key, seq, value) for key, (seq, value) in sorted(merged.items())]
        tree.leaves = tree.build_leaves(records)
        for leaf in tree.leaves:
            device.write(leaf.size_bytes, COMPACTION_WRITE, sequential=True)
        tree.side_partitions = []
        tree.absorb_count += 1


class LinkedAbsorb(_AbsorbPolicy):
    """LDC-style absorption: link slices to leaves, merge per leaf.

    Freezing and linking are metadata-only; the actual I/O happens per
    leaf, when a leaf has accumulated ``merge_ratio`` times its own size in
    linked data — the B-tree transfer of the paper's lower-level driven
    merge trigger.
    """

    name = "linked"

    def __init__(self, merge_ratio: float = 1.0) -> None:
        if merge_ratio <= 0:
            raise EngineError("merge_ratio must be positive")
        self.merge_ratio = merge_ratio
        self._link_seq = 0
        self.frozen: List[_SidePartition] = []

    def absorb(self) -> None:
        tree = self.tree
        sides = tree.side_partitions
        tree.side_partitions = []
        for side in sides:
            self._link(side)
        tree.absorb_count += 1
        # The actual merges are deferred to maintain(), one leaf per
        # operation — the LDC granularity property.

    def _link(self, side: _SidePartition) -> None:
        tree = self.tree
        side.frozen = True
        plan: List[Tuple[BTreeLeaf, Optional[bytes], Optional[bytes]]] = []
        previous_hi: Optional[bytes] = None
        for index, leaf in enumerate(tree.leaves):
            lo = previous_hi
            is_last = index == len(tree.leaves) - 1
            hi = None if is_last else leaf.max_key + b"\x00"
            previous_hi = hi
            if side.records_in_range(lo, hi):
                plan.append((leaf, lo, hi))
        if not plan:
            raise EngineError("a side partition must link to at least one leaf")
        side.refcount = len(plan)
        self.frozen.append(side)
        for leaf, lo, hi in plan:
            self._link_seq += 1
            piece = _SliceRef(side, lo, hi, self._link_seq)
            leaf.linked.append(piece)
            leaf.linked_bytes += piece.size_bytes

    def maintain(self) -> None:
        """Merge at most one due leaf (one I/O-bearing round per op)."""
        for leaf in self.tree.leaves:
            if leaf.linked and leaf.linked_bytes >= self.merge_ratio * leaf.size_bytes:
                self.merge_leaf(leaf)
                return

    def merge_leaf(self, leaf: BTreeLeaf) -> None:
        """The lower-level driven merge of one leaf with its slices."""
        tree = self.tree
        device = tree.device
        device.read(leaf.size_bytes, COMPACTION_READ, sequential=True)
        merged: Dict[bytes, Tuple[int, bytes]] = {
            key: (seq, value) for key, seq, value in leaf.records()
        }
        for piece in leaf.linked:
            device.read(piece.size_bytes, COMPACTION_READ, sequential=True)
            for key, seq, value in piece.records():
                if key not in merged or seq > merged[key][0]:
                    merged[key] = (seq, value)
        records = [(key, seq, value) for key, (seq, value) in sorted(merged.items())]
        new_leaves = tree.build_leaves(records)
        for new_leaf in new_leaves:
            device.write(new_leaf.size_bytes, COMPACTION_WRITE, sequential=True)
        index = tree.leaves.index(leaf)
        tree.leaves[index : index + 1] = new_leaves
        for piece in leaf.linked:
            piece.source.refcount -= 1
            if piece.source.refcount == 0:
                self.frozen.remove(piece.source)
                piece.source.frozen = False
        leaf.linked = []
        leaf.linked_bytes = 0
        tree.leaf_merge_count += 1

    def lookup_extra(self, leaf: BTreeLeaf, key: bytes) -> Optional[Tuple[int, bytes]]:
        best: Optional[Tuple[int, bytes]] = None
        for piece in sorted(leaf.linked, key=lambda p: p.link_seq, reverse=True):
            if not piece.covers(key):
                continue
            self.tree.device.read(
                min(piece.size_bytes, self.tree.leaf_bytes), USER_READ
            )
            hit = piece.get(key)
            if hit is not None and (best is None or hit[0] > best[0]):
                best = hit
        return best

    def extra_space_bytes(self) -> int:
        return sum(side.size_bytes for side in self.frozen)


class PartitionedBTree:
    """A partitioned B-tree over the simulated device.

    Writes buffer in memory; a full buffer becomes a side partition
    (sequential flush).  When ``max_side_partitions`` side partitions have
    accumulated, the absorb policy moves their contents into the main
    partition.  Reads check the buffer, then side partitions newest-first,
    then the responsible main leaf (and, under :class:`LinkedAbsorb`, its
    linked slices first).
    """

    def __init__(
        self,
        policy: Optional[_AbsorbPolicy] = None,
        device: Optional[SimulatedSSD] = None,
        buffer_bytes: int = 16 * 1024,
        leaf_bytes: int = 16 * 1024,
        max_side_partitions: int = 4,
    ) -> None:
        if buffer_bytes <= 0 or leaf_bytes <= 0 or max_side_partitions <= 0:
            raise EngineError("sizes and thresholds must be positive")
        self.policy = policy if policy is not None else LinkedAbsorb()
        self.device = device if device is not None else SimulatedSSD(ENTERPRISE_PCIE)
        self.clock = self.device.clock
        self.buffer_bytes = buffer_bytes
        self.leaf_bytes = leaf_bytes
        self.max_side_partitions = max_side_partitions
        self._buffer: Dict[bytes, Tuple[int, bytes]] = {}
        self._buffer_size = 0
        self.side_partitions: List[_SidePartition] = []
        self.leaves: List[BTreeLeaf] = []
        self._next_seq = 1
        self.absorb_count = 0
        self.leaf_merge_count = 0
        self.policy.attach(self)

    # ------------------------------------------------------------------
    def build_leaves(
        self, records: List[Tuple[bytes, int, bytes]]
    ) -> List[BTreeLeaf]:
        """Split a sorted record run into leaves of ~``leaf_bytes``."""
        if not records:
            return []
        total = sum(_record_size(k, v) for k, _, v in records)
        nleaves = max(1, round(total / self.leaf_bytes))
        per_leaf = total / nleaves
        leaves: List[BTreeLeaf] = []
        chunk: List[Tuple[bytes, int, bytes]] = []
        chunk_size = 0
        for record in records:
            chunk.append(record)
            chunk_size += _record_size(record[0], record[2])
            if chunk_size >= per_leaf and len(leaves) < nleaves - 1:
                leaves.append(BTreeLeaf(chunk))
                chunk = []
                chunk_size = 0
        if chunk:
            leaves.append(BTreeLeaf(chunk))
        return leaves

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update; spills the buffer and absorbs when due."""
        if not isinstance(key, bytes) or not key:
            raise EngineError("keys must be non-empty bytes")
        seq = self._next_seq
        self._next_seq += 1
        previous = self._buffer.get(key)
        if previous is not None:
            self._buffer_size -= _record_size(key, previous[1])
        self._buffer[key] = (seq, value)
        self._buffer_size += _record_size(key, value)
        self.device.registry.add("engine.user_bytes_written", _record_size(key, value))
        self.clock.advance(0.5)
        if self._buffer_size >= self.buffer_bytes:
            self._spill_buffer()
        self.policy.maintain()

    def _spill_buffer(self) -> None:
        records = [
            (key, seq, value) for key, (seq, value) in sorted(self._buffer.items())
        ]
        side = _SidePartition(records)
        self.device.write(side.size_bytes, FLUSH_WRITE, sequential=True)
        self._buffer = {}
        self._buffer_size = 0
        if not self.leaves:
            # Bootstrap: the first spill becomes the main partition.
            self.leaves = self.build_leaves(records)
            return
        self.side_partitions.append(side)
        if len(self.side_partitions) >= self.max_side_partitions:
            self.policy.absorb()

    def get(self, key: bytes) -> Optional[bytes]:
        """Newest visible value: buffer, sides (newest first), then leaf."""
        self.clock.advance(0.3)
        hit = self._buffer.get(key)
        best: Optional[Tuple[int, bytes]] = hit
        for side in reversed(self.side_partitions):
            self.device.read(min(side.size_bytes, self.leaf_bytes), USER_READ)
            side_hit = side.get(key)
            if side_hit is not None and (best is None or side_hit[0] > best[0]):
                best = side_hit
        leaf = self._responsible_leaf(key)
        if leaf is not None:
            extra = self.policy.lookup_extra(leaf, key)
            if extra is not None and (best is None or extra[0] > best[0]):
                best = extra
            if leaf.min_key <= key <= leaf.max_key:
                self.device.read(leaf.size_bytes, USER_READ)
                leaf_hit = leaf.get(key)
                if leaf_hit is not None and (best is None or leaf_hit[0] > best[0]):
                    best = leaf_hit
        return None if best is None else best[1]

    def _responsible_leaf(self, key: bytes) -> Optional[BTreeLeaf]:
        if not self.leaves:
            return None
        maxes = [leaf.max_key for leaf in self.leaves]
        index = bisect_left(maxes, key)
        if index < len(self.leaves):
            return self.leaves[index]
        return self.leaves[-1]

    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """All live pairs in key order (verification backdoor, no cost)."""
        merged: Dict[bytes, Tuple[int, bytes]] = {}
        for leaf in self.leaves:
            for key, seq, value in leaf.records():
                if key not in merged or seq > merged[key][0]:
                    merged[key] = (seq, value)
            for piece in leaf.linked:
                for key, seq, value in piece.records():
                    if key not in merged or seq > merged[key][0]:
                        merged[key] = (seq, value)
        for side in self.side_partitions:
            for key, seq, value in side.records:
                if key not in merged or seq > merged[key][0]:
                    merged[key] = (seq, value)
        for key, (seq, value) in self._buffer.items():
            if key not in merged or seq > merged[key][0]:
                merged[key] = (seq, value)
        for key in sorted(merged):
            yield key, merged[key][1]

    def metrics(self) -> MetricsSnapshot:
        """Device I/O and user bytes as one snapshot (``.write_amplification``
        is the physical/logical write ratio over the device's lifetime)."""
        return MetricsSnapshot.capture(self.device.registry, self.clock.now())

    def space_bytes(self) -> int:
        """Resident bytes: leaves + side partitions + frozen residue."""
        live = sum(leaf.size_bytes for leaf in self.leaves)
        live += sum(side.size_bytes for side in self.side_partitions)
        return live + self.policy.extra_space_bytes()
