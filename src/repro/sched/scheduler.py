"""Deterministic virtual-time background compaction.

Every compaction round starts in one routine,
:meth:`~repro.lsm.compaction.base.MaintenanceEngine._capture`, under the
clock's *capture mode*; ``config.bg_threads`` only decides who pays the
captured time (with threads, memtable flushes are captured there too).
With N >= 1 threads the engine is
:class:`CompactionScheduler`, and the paper's interference mechanism
(Fig. 1, Figs. 8–9) is one knob away from the synchronous model of its
tail-latency equation (3).  Both stay fully deterministic:

**Capture.**  A compaction round executes the unchanged policy code
(:meth:`~repro.lsm.compaction.base.CompactionPolicy.compact_one_tracked`)
under capture: the round's logical effects — version-set edits, links,
merges, file drops — apply immediately and atomically, while every time
charge is diverted into a list of ``(kind, duration, bytes)`` items.
Logical state is therefore identical for every thread count (the
metamorphic guarantee the differential suite pins), and a crash can simply
discard in-flight work: it is pure time debt, never half-applied state.

**Chunks and threads.**  With ``bg_threads >= 1`` captured items are split
at block granularity into chunks.  Each background "thread" owns a
``free_at_us`` horizon and drains one task (one captured round) at a time,
chunk by chunk.  IO chunks additionally serialise on the shared
:class:`~repro.ssd.clock.DeviceChannel` — one device, one transfer at a
time — while CPU chunks only occupy the thread, so CPU work overlaps device
work across threads.  Foreground I/O arriving while the channel is busy
waits out the horizon (``sched.device_wait_us``): that wait is the
interference.  Chunks replay lazily, in virtual time: each foreground
operation first replays those that start before it does (:meth:`pump`),
so background work owed in an idle gap runs in the gap, and at its end
those that start before it ends (:meth:`on_operation`).

**The flush lane.**  A memtable flush is background work too: the write
that fills the memtable installs the Level-0 file(s) and resets the
memtable and WAL at once, under capture, and the flush's time becomes a
task on one more :class:`BackgroundThread`, the *flush lane*, kept
outside ``threads``.  The lane holds at most one flush — LevelDB's one
``imm_``: a write that fills the memtable while the previous flush is
still unpaid first waits for it (``sched.flush_wait_us``, write time).
On the device channel no round captured after the flush starts an I/O
chunk before the flush has finished, so a compaction never reads a
Level-0 file before its bytes are written.  Rounds captured before the
flush win a tie for the channel against it, until a writer waits for
the flush: the flush then inherits the writer's priority and wins.

**Pacing.**  New rounds are captured only when a compaction thread is
idle *at the current virtual time* (the flush lane never counts).  While
every thread is still paying off earlier debt, flushes pile files into
Level 0 — which is exactly when LevelDB's write throttling (slowdown
delay, stop stall) becomes mechanically meaningful rather than a
modelling fiction.

Everything is a pure function of the operation stream: ties break on
thread index, queues are FIFO, and no wall-clock or randomness enters, so
runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import deque
from math import ceil, inf
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from ..errors import EngineError
from ..lsm.compaction.base import MaintenanceEngine, guard_rounds
from ..lsm.stats import ACT_WRITE_KEY
from ..obs.events import EV_SCHED_TASK, EV_SCHED_TASK_DONE
from ..ssd.clock import CAPTURE_IO, DeviceChannel

if TYPE_CHECKING:  # pragma: no cover
    from ..lsm.db import DB

#: One replayable unit of background work: ``(kind, duration_us)``.
Chunk = Tuple[str, float]


class CompactionTask:
    """One captured compaction round — or, on the flush lane, one captured
    memtable flush (``policy`` is then ``"flush"``) — resumable at chunk
    granularity."""

    __slots__ = ("task_id", "policy", "enqueued_us", "chunks", "next_chunk")

    def __init__(
        self, task_id: int, policy: str, enqueued_us: float, chunks: List[Chunk]
    ) -> None:
        self.task_id = task_id
        self.policy = policy
        #: Virtual time of capture; chunks never replay before it.
        self.enqueued_us = enqueued_us
        self.chunks = chunks
        self.next_chunk = 0

    @property
    def remaining_chunks(self) -> int:
        return len(self.chunks) - self.next_chunk

    @property
    def done(self) -> bool:
        return self.next_chunk >= len(self.chunks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompactionTask(id={self.task_id}, policy={self.policy!r}, "
            f"{self.remaining_chunks}/{len(self.chunks)} chunks left)"
        )


class BackgroundThread:
    """One simulated background worker: busy until ``free_at_us``."""

    __slots__ = ("index", "free_at_us", "task")

    def __init__(self, index: int) -> None:
        self.index = index
        self.free_at_us = 0.0
        self.task: Optional[CompactionTask] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "idle" if self.task is None else f"task={self.task.task_id}"
        return f"BackgroundThread({self.index}, free_at={self.free_at_us:.1f}, {state})"


class CompactionScheduler(MaintenanceEngine):
    """The maintenance engine with ``config.bg_threads >= 1`` virtual
    background threads.  Its :class:`~repro.ssd.clock.DeviceChannel`,
    attached to the DB's device, makes foreground I/O arbitrate against
    in-flight background chunks.  Its counters live under ``sched.`` in
    the DB's metrics registry: ``tasks_enqueued`` / ``tasks_completed``,
    ``chunks_executed`` / ``chunks_discarded``, ``bg_busy_us``,
    ``device_wait_us`` / ``device_waits`` (bumped by the device),
    ``stall_events`` / ``stall_time_us`` and ``slowdown_events`` /
    ``slowdown_time_us`` (bumped by the throttle hooks) and
    ``flush_waits`` / ``flush_wait_us`` (a write waiting for the previous
    flush).  The task and busy-time counters include the flush lane's
    tasks.
    """

    def __init__(self, db: "DB") -> None:
        super().__init__(db)
        self.channel = DeviceChannel()
        self.threads = [
            BackgroundThread(index) for index in range(db.config.bg_threads)
        ]
        #: The flush lane: at most one captured flush.  Last in
        #: ``_lanes``, so it loses a tie for the channel (see flush).
        self.flush_lane = BackgroundThread(-1)
        self._lanes = [*self.threads, self.flush_lane]
        db.device.channel = self.channel
        self.queue: Deque[CompactionTask] = deque()
        self._next_task_id = 1
        self._chunk_bytes = db.config.block_bytes
        # CPU chunk duration: comparable to one block's sequential read, so
        # CPU-heavy rounds interleave at the same grain as IO-heavy ones.
        self._cpu_chunk_us = max(
            db.device.read_cost_us(db.config.block_bytes, sequential=True), 1e-9
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> bool:
        """True while any background work, a flush included, is queued or
        mid-task."""
        return bool(self.queue) or any(t.task is not None for t in self._lanes)

    def pending_chunks(self) -> int:
        """Chunks not yet replayed, across the queue, threads and the lane."""
        total = sum(task.remaining_chunks for task in self.queue)
        total += sum(t.task.remaining_chunks for t in self._lanes if t.task)
        return total

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_operation(self) -> None:
        """Run the maintenance one user operation owes, at its virtual time.

        Replay chunks whose start precedes *now*, then capture at most one
        new round per thread idle at the current time.  Capture-on-idle is
        the pacing rule: busy threads mean Level 0 accumulates, which is
        what arms the slowdown/stop throttling upstream.

        The policy's idle gate is honoured: after a no-work poll of an
        idle-stable policy nothing is captured until a flush, seek
        exhaustion or an observed operation re-arms it.  With nothing in
        flight and the gate set this is comparisons only: no call is made.
        """
        db = self.db
        now = db.clock._now_us
        if self.queue:
            self._replay(now)
        else:
            for thread in self._lanes:
                if thread.task is not None:
                    self._replay(now)
                    break
        # After a replay no idle thread faces a queued task, so an idle
        # policy leaves _start_rounds nothing to do.
        if not db.policy._maintenance_idle:
            self._start_rounds(now)

    def flush(self) -> None:
        """Flush the memtable now; pay its time on the flush lane.

        LevelDB's one ``imm_``: until the previous flush has ended the
        writer waits for it, as write time and ``sched.flush_wait*``;
        meanwhile the lane comes first in ``_lanes``, so the flush
        inherits the writer's priority and wins channel ties against
        older rounds.  The flush then runs under capture, so its Level-0
        files, the fresh memtable and the reset WAL exist when this
        returns; its captured time is the lane's task.  A flush that
        raises is paid like a round that raises: its debt dies with it.
        """
        clock = self.db.clock
        lane = self.flush_lane
        if lane.task is not None or lane.free_at_us > clock._now_us:
            start = clock._now_us
            self._lanes = [lane, *self.threads]
            try:
                while lane.task is not None:
                    self._advance_to_next_completion()
            finally:
                self._lanes = [*self.threads, lane]
            # Its last chunk, replayed, may end after the clock.
            clock.advance_to(lane.free_at_us)
            wait = clock._now_us - start
            self._count(ACT_WRITE_KEY, wait)
            self._count("sched.flush_waits")
            self._count("sched.flush_wait_us", wait)
        self._capture(self.db._write_memtable, self._pay_flush, clock._now_us)

    def drain(self) -> float:
        """Pay off all outstanding debt, flushes included; advance the clock
        past the last chunk.

        Used at ``close()`` so a finished run's clock covers all work the
        run caused — the analogue of joining the compaction threads.
        Returns the new virtual time.
        """
        clock = self.db.clock
        return clock.advance_to(max(clock.now(), self._replay(inf)))

    def stall_until_l0_below(self, limit: int) -> float:
        """Block (in virtual time) until Level 0 holds fewer than ``limit`` files.

        The L0 *stop* semantics: capture new rounds whenever a thread is
        idle (their effects shrink L0 immediately); while all threads are
        busy, jump the clock to the next task completion — the writer is
        genuinely waiting for background compaction to catch up.  The
        wait, returned, is write time and ``sched.stall_*``.
        """
        clock = self.db.clock
        version = self.db.version
        start = clock.now()
        rounds = 0
        while len(version.levels[0]) >= limit:
            now = clock.now()
            self._replay(now)
            if self._start_rounds(now):
                rounds += 1
                guard_rounds(rounds)
                continue
            if not self.queue and all(t.task is None for t in self.threads):
                # No round in flight and the policy found no work: L0
                # cannot shrink further (a flush only grows it);
                # surrender rather than spin.
                break
            self._advance_to_next_completion()
        duration = clock.now() - start
        self._count(ACT_WRITE_KEY, duration)
        self._count("sched.stall_events")
        self._count("sched.stall_time_us", duration)
        return duration

    def slow_down(self, delay_us: float) -> None:
        """The Level-0 *slowdown*, also counted under ``sched.slowdown_*``."""
        super().slow_down(delay_us)
        self._count("sched.slowdown_events")
        self._count("sched.slowdown_time_us", delay_us)

    def discard_inflight(self) -> int:
        """Drop queued and mid-task work (crash semantics); return chunks lost.

        Captured rounds already applied their logical effects, so the only
        thing a crash destroys is unpaid time debt — which a rebooted
        store does not owe.  The channel's future occupancy dies with it.
        """
        dropped = self.pending_chunks()
        self.queue.clear()
        now = self.db.clock.now()
        for thread in self._lanes:
            thread.task = None
            if thread.free_at_us > now:
                thread.free_at_us = now
        self.channel.release(now)
        if dropped:
            self._count("sched.chunks_discarded", dropped)
        return dropped

    def check_invariants(self) -> None:
        """Scheduler-internal consistency; raise :class:`EngineError` on violation."""
        lane = self.flush_lane
        for thread in self._lanes:
            task = thread.task
            if task is None:
                continue
            if task.done:
                raise EngineError(
                    f"background thread {thread.index} holds completed "
                    f"task {task.task_id}"
                )
            if (task.policy == "flush") != (thread is lane):
                raise EngineError(
                    f"background thread {thread.index} holds "
                    f"{task.policy} task {task.task_id}"
                )
        for task in self.queue:
            if task.next_chunk != 0:
                raise EngineError(
                    f"queued task {task.task_id} has already executed chunks"
                )
        if self.channel.busy_until_us < 0:
            raise EngineError("device channel horizon is negative")

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def _start_rounds(self, now_us: float) -> bool:
        """Capture one round per currently-idle thread; True if any captured.

        Honours the policy's idle gate as :meth:`on_operation` does.
        """
        captured = False
        policy = self.db.policy
        for thread in self.threads:
            if thread.task is not None or thread.free_at_us > now_us:
                continue
            if self.queue:
                self._assign_idle()
                continue
            if policy._maintenance_idle:
                break
            if not self._capture(policy.compact_one_tracked, self._pay, now_us):
                policy._maintenance_idle = True
                break
            captured = True
            self._assign_idle()
        return captured

    def _pay(self, items: list, did_work: bool, now_us: float) -> None:
        """Queue a round that did work as a task of block-granularity
        chunks; a raising round's debt dies with it."""
        task = self._task(self.db.policy.name, items, did_work, now_us)
        if task is not None:
            self.queue.append(task)

    def _pay_flush(self, items: list, did_work: bool, now_us: float) -> None:
        """Hand a captured flush to the flush lane, which :meth:`flush`
        has seen idle."""
        task = self._task("flush", items, did_work, now_us)
        if task is not None:
            lane = self.flush_lane
            lane.task = task
            if now_us > lane.free_at_us:
                lane.free_at_us = now_us

    def _task(
        self, owner: str, items: list, did_work: bool, now_us: float
    ) -> Optional[CompactionTask]:
        """Captured ``items`` as one task of ``owner`` (a policy name, or
        ``"flush"``); None when there is nothing to replay."""
        if not did_work:
            return None
        db = self.db
        chunks = self._chunkify(items)
        self._count("sched.tasks_enqueued")
        if not chunks:
            # Zero-I/O metadata round (an LDC link, a trivial move): there
            # is no debt to replay, so no task occupies a thread.
            self._count("sched.tasks_completed")
            return None
        task = CompactionTask(self._next_task_id, owner, now_us, chunks)
        self._next_task_id += 1
        tracer = db.tracer
        if tracer.active:
            tracer.emit(
                EV_SCHED_TASK,
                task_id=task.task_id,
                policy=task.policy,
                chunks=len(chunks),
                debt_us=sum(duration for _, duration in chunks),
                io_us=sum(d for kind, d in chunks if kind == CAPTURE_IO),
            )
        return task

    def _chunkify(self, items) -> List[Chunk]:
        """Split captured time charges into block-granularity chunks."""
        chunks: List[Chunk] = []
        for kind, duration, nbytes in items:
            if duration <= 0:
                continue
            if kind == CAPTURE_IO:
                pieces = max(1, -(-nbytes // self._chunk_bytes))
            else:
                pieces = max(1, ceil(duration / self._cpu_chunk_us))
            per_chunk = duration / pieces
            chunks.extend([(kind, per_chunk)] * pieces)
        return chunks

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _assign_idle(self) -> None:
        """Hand queued tasks to idle threads (earliest-free first, FIFO tasks)."""
        while self.queue:
            idle = [t for t in self.threads if t.task is None]
            if not idle:
                return
            thread = min(idle, key=lambda t: (t.free_at_us, t.index))
            task = self.queue.popleft()
            thread.task = task
            if task.enqueued_us > thread.free_at_us:
                thread.free_at_us = task.enqueued_us

    def _replay(self, until_us: float, first_completion: bool = False) -> float:
        """The one replay step, looped: select a thread, replay its run.

        Each turn hands queued tasks to idle threads and picks the busy
        thread whose next chunk can start first (an IO chunk waits for the
        device channel; ties break on order in ``_lanes``: thread index,
        the flush lane last unless a writer waits for it).  While the lane
        holds a flush, a round captured after it (a larger task id) starts
        no IO chunk: the flush is all IO, so that chunk starts after the
        flush ends.  While that start
        precedes ``until_us`` the thread replays a *run*: its next chunks,
        one after another, while each still starts strictly before the
        runner-up thread's ready time — the channel only moves later, so
        the per-chunk selection would have picked this thread every time.
        The thread is busy until each chunk's end, an IO chunk extends the
        channel horizon, and ``sched.chunks_executed`` / ``sched.bg_busy_us``
        are bumped once per run (the durations added in replay order).  A
        finished task frees its thread and returns to the selection; with
        ``first_completion`` the loop stops there and returns that chunk's
        end.

        Otherwise returns the latest chunk end replayed, ``-inf`` if
        nothing was due.
        """
        threads = self._lanes
        lane = self.flush_lane
        channel = self.channel
        counters = self.db.registry._counters
        latest = -inf
        while True:
            if self.queue:
                self._assign_idle()
            flush = lane.task
            chosen = None
            start = 0.0
            runner_up = inf
            for thread in threads:
                task = thread.task
                if task is None:
                    continue
                ready = thread.free_at_us
                if task.chunks[task.next_chunk][0] == CAPTURE_IO:
                    if flush is not None and task.task_id > flush.task_id:
                        continue
                    if channel.busy_until_us > ready:
                        ready = channel.busy_until_us
                if chosen is None or ready < start:
                    if chosen is not None:
                        runner_up = start
                    chosen = thread
                    start = ready
                elif ready < runner_up:
                    runner_up = ready
            if chosen is None or start >= until_us:
                return latest
            if until_us < runner_up:
                runner_up = until_us
            task = chosen.task
            blocked = flush is not None and task.task_id > flush.task_id
            chunks = task.chunks
            last = len(chunks)
            at = task.next_chunk
            busy = counters.get("sched.bg_busy_us", 0)
            replayed = 0
            while True:
                kind, duration = chunks[at]
                end = start + duration
                if kind == CAPTURE_IO and end > channel.busy_until_us:
                    channel.busy_until_us = end
                at += 1
                replayed += 1
                busy += duration
                if at >= last:
                    break
                start = end
                if chunks[at][0] == CAPTURE_IO:
                    if blocked:
                        break
                    if channel.busy_until_us > start:
                        start = channel.busy_until_us
                if start >= runner_up:
                    break
            chosen.free_at_us = end
            task.next_chunk = at
            counters["sched.chunks_executed"] = (
                counters.get("sched.chunks_executed", 0) + replayed
            )
            counters["sched.bg_busy_us"] = busy
            if end > latest:
                latest = end
            if at >= last:
                chosen.task = None
                counters["sched.tasks_completed"] = (
                    counters.get("sched.tasks_completed", 0) + 1
                )
                tracer = self.db.tracer
                if tracer.active:
                    tracer.emit(
                        EV_SCHED_TASK_DONE,
                        task_id=task.task_id,
                        policy=task.policy,
                        completed_us=end,
                    )
                if first_completion:
                    return end

    #: Bring the background up to ``until_us``: replay every chunk that
    #: starts strictly before it.  The DB calls it at the top of every
    #: foreground operation (``get``, ``scan``, a write, a batch), before
    #: the operation's policy hook, stall check or first I/O, so the
    #: chunks owed for an idle gap hold the device channel in that gap,
    #: not after the operation's own I/O.  It is :meth:`_replay` itself,
    #: not a wrapper: one call per operation.
    pump = _replay

    def _advance_to_next_completion(self) -> bool:
        """Fast-forward the clock to the next task completion; False if none."""
        end = self._replay(inf, first_completion=True)
        if end == -inf:
            return False
        self.db.clock.advance_to(end)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        busy = sum(1 for t in self.threads if t.task is not None)
        return (
            f"CompactionScheduler(threads={len(self.threads)}, busy={busy}, "
            f"queued={len(self.queue)}, flush={self.flush_lane.task is not None})"
        )
