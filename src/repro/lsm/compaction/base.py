"""The compaction policy and the engine that runs its rounds.

A :class:`CompactionPolicy` owns all maintenance decisions of the tree:
when to compact, which files participate, and where outputs land.  It
runs one point of the trigger × selector × movement × layout design
space (:mod:`~repro.lsm.compaction.primitives`) named by a
:class:`~repro.lsm.compaction.spec.PolicySpec` — ``udc`` (the paper's
baseline, LevelDB's upper-level driven compaction), ``ldc`` (the paper's
contribution) and the rest of the registered catalogue — and reaches a
composition's internals on its primitives (``policy.movement.frozen``,
``policy.layout.level_runs``, ``policy.trigger.delay_factor``).

The :class:`MaintenanceEngine` runs its rounds
(:meth:`CompactionPolicy.compact_one_tracked`) under a clock capture, and
the policy charges all I/O to the shared device under the
``compaction_read`` / ``compaction_write`` categories.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from operator import itemgetter

from .columnar import MergedColumns, merge_windows
from ..builder import build_balanced_columns
from ..config import MERGE_PER_RECORD_US
from ..record import KIND_DELETE
from ..sstable import SSTable
from ..stats import ACT_COMPACTION_KEY, ACT_FLUSH_KEY, ACT_WRITE_KEY
from ...errors import CompactionError, ConfigError
from ...obs.events import EV_COMPACTION_ROUND
from ...ssd.metrics import (
    COMPACTION_READ_BYTES_KEY,
    COMPACTION_WRITE_BYTES_KEY,
    COMPACTION_READ,
    COMPACTION_WRITE,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..db import DB
    from .spec import PolicySpec

#: Upper bound on compaction rounds per maintenance pass.  Hitting it means
#: a policy stopped making progress — a bug we want surfaced, not hidden.
MAX_ROUNDS_PER_PASS = 10_000

_record_kind = itemgetter(2)


class CompactionPolicy:
    """A compaction policy assembled from a declarative spec."""

    def __init__(self, spec: "PolicySpec") -> None:
        self.db: Optional["DB"] = None
        self.spec = spec
        self.trigger, self.selector, self.movement, self.layout = (
            spec.build_primitives()
        )
        #: Reports, counters and trace events all carry the spec's name.
        self.name = spec.name
        #: Idle gate (see MaintenanceEngine.on_operation): True while the
        #: policy is known to have no maintenance due and nothing re-armed
        #: the poll.  Cleared by flush and (for movements that observe
        #: operations) every operation notification.
        self._maintenance_idle = False
        self._check_composition()

    def _check_composition(self) -> None:
        if self.selector.CANDIDATE not in self.movement.ACCEPTS:
            raise ConfigError(
                f"policy {self.name!r}: movement "
                f"{self.movement.primitive_name!r} accepts "
                f"{self.movement.ACCEPTS} candidates, but selector "
                f"{self.selector.primitive_name!r} produces "
                f"{self.selector.CANDIDATE!r}"
            )
        for primitive in (self.trigger, self.selector, self.movement):
            required = primitive.REQUIRES_SORTED
            if required is not None and required != self.layout.sorted_levels:
                shape = "sorted (leveled)" if required else "tiered"
                raise ConfigError(
                    f"policy {self.name!r}: {primitive.describe()} requires "
                    f"a {shape} layout, got "
                    f"layout:{self.layout.primitive_name}"
                )
        if self.selector.CANDIDATE == "runs" and not hasattr(
            self.layout, "level_runs"
        ):
            raise ConfigError(
                f"policy {self.name!r}: {self.selector.describe()} needs run "
                f"bookkeeping, but layout:{self.layout.primitive_name} "
                f"tracks no runs"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, db: "DB") -> None:
        """Bind the policy, then its primitives, to its database (called
        once by the DB)."""
        self.db = db
        for primitive in (self.layout, self.trigger, self.selector,
                          self.movement):
            primitive.attach(self)

    @property
    def _db(self) -> "DB":
        if self.db is None:
            raise CompactionError(f"policy {self.name!r} is not attached to a DB")
        return self.db

    def describe(self) -> str:
        return self.spec.describe()

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def compact_one(self) -> bool:
        """Perform at most one I/O-bearing compaction round.

        Returns True when any maintenance work was done, and False when
        the tree is within its shape limits.  A non-batching movement
        (merge-down, tiered stacking) runs one trigger decision → one
        selection → one executed round; a zero-I/O-batching movement
        (LDC) batches free metadata actions (links, trivial moves) until
        one bears I/O, checking its *urgent* debt (due merges,
        frozen-space pressure) first — Algorithm 1's priority order.

        The engine calls this once per user operation, modelling a
        background compaction thread that keeps pace with the foreground:
        an operation's latency absorbs at most one round — the paper's
        tail-latency equation (3), where ``tl_w = t_compaction + t_w`` for
        a *single* round of compaction.
        """
        movement = self.movement
        batching = movement.zero_io_batching
        did_work = False
        rounds = 0
        while True:
            if movement.urgent_round():
                return True
            level = self.trigger.fire()
            if level is None:
                return did_work
            candidate = self.selector.select(level)
            if movement.execute(level, candidate) or not batching:
                return True
            # A link or trivial move happened: free, keep going.
            did_work = True
            rounds += 1
            guard_rounds(rounds)

    def compact_one_tracked(self) -> bool:
        """Run one round and record its I/O volume in the round histogram.

        The per-round byte distribution is the *granularity* metric of the
        paper's equation (3): UDC rounds move O(fan_out) files, LDC rounds
        O(1).

        Every I/O-bearing round also emits one ``compaction_round`` trace
        event — this is its only emitter — carrying the exact per-round
        read/write byte deltas, so the events of a trace sum to the
        device's ``compaction_read`` + ``compaction_write`` category
        totals, and the round's duration
        (:meth:`~repro.ssd.clock.SimClock.charged_since`: under the
        engine's clock capture, the time the round's items add).
        """
        db = self._db
        # Raw counter-dict reads: this runs once per user op.
        counter_get = db.registry._counters.get
        read_before = counter_get(COMPACTION_READ_BYTES_KEY, 0)
        write_before = counter_get(COMPACTION_WRITE_BYTES_KEY, 0)
        clock = db.clock
        start = clock._now_us
        did_work = self.compact_one()
        if not did_work:
            # No round ran, so the compaction counters cannot have moved;
            # skip the delta reads (this path runs once per user op).
            return False
        bytes_read = counter_get(COMPACTION_READ_BYTES_KEY, 0) - read_before
        bytes_written = counter_get(COMPACTION_WRITE_BYTES_KEY, 0) - write_before
        if bytes_read + bytes_written > 0:
            db.round_bytes.append(bytes_read + bytes_written)
            db.tracer.emit(
                EV_COMPACTION_ROUND,
                policy=self.name,
                bytes_read=bytes_read,
                bytes_written=bytes_written,
                duration_us=clock.charged_since(start),
            )
        return did_work

    def maybe_compact(self) -> None:
        """Run compaction rounds until the tree is within its limits.

        The uncaptured full drain, charged on the foreground clock: run
        preparation and test helpers.  (Every other round, the Level-0
        *stop* stall's drain included, runs captured in the
        :class:`MaintenanceEngine`.)
        """
        rounds = 0
        while self.compact_one_tracked():
            rounds += 1
            guard_rounds(rounds)

    def on_operation(self, is_write: bool) -> None:
        """Observe one user operation (drives LDC's adaptive threshold)."""
        if self.movement.observes_operations:
            self.movement.on_operation(is_write)
            self._maintenance_idle = False

    def extra_space_bytes(self) -> int:
        """Policy-held space outside the tree (LDC's frozen region)."""
        return self.movement.extra_space_bytes()

    def check_invariants(self) -> None:
        """Verify policy-internal invariants; raise on violation.

        Called by ``DB.check_invariants`` (the crash-test oracle): LDC's
        movement verifies its frozen region here.
        """
        self.movement.check_invariants()

    # ------------------------------------------------------------------
    # Policy metrics
    # ------------------------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment the policy counter ``policy.<name>.<counter>``.

        Policy-internal measurements recorded this way show up in
        ``db.metrics()`` and are zeroed by ``db.reset_measurements()``
        like every other counter — the uniform-reset guarantee.
        """
        self._db.registry.add(f"policy.{self.name}.{name}", amount)

    def set_metric_gauge(self, name: str, value: float) -> None:
        """Record the live value of gauge ``policy.<name>.<gauge>``."""
        self._db.registry.set_gauge(f"policy.{self.name}.{name}", value)

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------
    def read_inputs(self, tables: Sequence[SSTable]) -> None:
        """Charge the sequential reads of whole input files.

        Under a fault plan the device ends the batch at a read a
        corruption landed on, and the CRC verification (all blocks of
        that file) surfaces the flip as a
        :class:`~repro.errors.CorruptionError` before later inputs are
        charged or the merge consumes the data.
        """
        db = self._db
        device = db.device
        charged = device.read_runs(
            [table.data_size for table in tables],
            COMPACTION_READ,
            sequential=True,
        )
        if charged and device.faults is not None:
            last = tables[charged - 1]
            db._verify_block_read(last, range(last.num_blocks))

    def finish_merge(
        self, merged: MergedColumns, *, drop_deletes: bool
    ) -> List[SSTable]:
        """Charge the merge CPU, drop tombstones, build and charge outputs.

        The columnar tail of every compaction: takes the merged columns
        from :func:`~repro.lsm.compaction.columnar.merge_windows`, charges
        the per-record merge cost (one advance over the deduplicated
        count, *before* tombstones drop), then cuts balanced output files
        from column slices and charges their sequential writes.
        """
        db = self._db
        keys, records, sizes = merged
        db.clock.advance(len(records) * MERGE_PER_RECORD_US)
        if drop_deletes:
            kinds = list(map(_record_kind, records))
            if KIND_DELETE in kinds:
                keep = [
                    index for index, kind in enumerate(kinds)
                    if kind != KIND_DELETE
                ]
                keys = [keys[index] for index in keep]
                records = [records[index] for index in keep]
                sizes = [sizes[index] for index in keep]
        outputs = build_balanced_columns(
            keys, records, sizes, db.config, db.next_file_id
        )
        for table in outputs:
            db.device.write(
                table.data_size, COMPACTION_WRITE, sequential=True,
                owner=table.file_id,
            )
        return outputs

    def merge_tables(
        self,
        inputs: Sequence[SSTable],
        *,
        drop_deletes: bool,
    ) -> List[SSTable]:
        """Classic whole-file compaction: read, merge, write (Definition 2.4)."""
        self.read_inputs(inputs)
        merged = merge_windows([table.columns_window() for table in inputs])
        return self.finish_merge(merged, drop_deletes=drop_deletes)

    def can_drop_tombstones(self, target_level: int) -> bool:
        """Tombstones may be dropped when nothing deeper can hold the key."""
        return target_level >= self._db.version.deepest_nonempty_level()


def guard_rounds(rounds: int) -> None:
    """Abort a maintenance pass that has stopped converging."""
    if rounds > MAX_ROUNDS_PER_PASS:
        raise CompactionError(
            f"compaction did not converge within {MAX_ROUNDS_PER_PASS} rounds"
        )


class MaintenanceEngine:
    """Runs a DB's compaction rounds and memtable flushes; this base has
    no background thread.

    Every round starts in :meth:`_capture`, whose captured items
    :meth:`_pay` adds back onto the foreground clock at once, in capture
    order — the float additions inline charging makes: an operation
    absorbs its round synchronously (equation (3)'s ``tl_w = t_compaction
    + t_w``), and the write that fills the memtable pays the flush.
    :class:`~repro.sched.scheduler.CompactionScheduler` is the engine with
    ``config.bg_threads >= 1`` background threads, plus a flush lane, to
    pay.
    """

    #: Background threads paying captured rounds: none here.
    threads: Sequence = ()
    in_flight = False

    def __init__(self, db: "DB") -> None:
        self.db = db
        self._count = db.registry.add

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def on_operation(self) -> None:
        """Run the at most one round a user operation owes, as compaction
        time; a no-work poll sets the policy's idle gate."""
        policy = self.db.policy
        if policy._maintenance_idle:
            return
        clock = self.db.clock
        start = clock._now_us
        if self._capture(policy.compact_one_tracked, self._pay, start):
            self._count(ACT_COMPACTION_KEY, clock._now_us - start)
        else:
            policy._maintenance_idle = True

    def flush(self) -> None:
        """Flush the memtable inline: the writer pays it, as flush time."""
        clock = self.db.clock
        start = clock._now_us
        self.db._write_memtable()
        self._count(ACT_FLUSH_KEY, clock._now_us - start)

    def stall_until_l0_below(self, limit: int) -> float:
        """The Level-0 *stop* stall, a foreground drain: rounds until no
        work, charged as compaction time once.  Returns the stall time."""
        clock = self.db.clock
        start = clock._now_us
        rounds = 0
        compact = self.db.policy.compact_one_tracked
        while self._capture(compact, self._pay, clock._now_us):
            rounds += 1
            guard_rounds(rounds)
        self._count(ACT_COMPACTION_KEY, clock._now_us - start)
        return clock._now_us - start

    def slow_down(self, delay_us: float) -> None:
        """The Level-0 *slowdown*: the writer pays the delay as write time."""
        self.db.clock.advance(delay_us)
        self._count(ACT_WRITE_KEY, delay_us)

    def drain(self) -> float:
        """Pay all outstanding debt (there is none); return the time."""
        return self.db.clock.now()

    def discard_inflight(self) -> int:
        """Drop in-flight work on a crash; return chunks lost (none)."""
        return 0

    def check_invariants(self) -> None:
        """Engine-internal consistency: nothing to check without threads."""

    def _capture(
        self,
        work: Callable[[], bool],
        pay: Callable[[list, bool, float], None],
        now_us: float,
    ) -> bool:
        """The one routine that starts background work — a compaction
        round (``work`` is the policy's round, ``pay`` is :meth:`_pay`)
        or, on the scheduler, a memtable flush: ``work`` under clock
        capture, its items handed to ``pay``; True if it did work.  Work
        that raises (a fault-plan crash, a detected corruption) is paid
        too."""
        clock = self.db.clock
        did_work = False
        clock.begin_capture()
        try:
            did_work = work()
        finally:
            pay(clock.end_capture(), did_work, now_us)
        return did_work

    def _pay(self, items: list, did_work: bool, now_us: float) -> None:
        """Add a round's items onto the clock in order, a raising round's
        too: the time charged before a fault stays charged."""
        clock = self.db.clock
        for _, duration, _ in items:
            clock._now_us += duration
