"""The scheduler's replay helpers, kept as a test oracle.

Until PR 23 replaying one background chunk took five methods: ``pump`` /
``drain`` / ``_advance_to_next_completion`` each looped ``_assign_idle`` ->
``_earliest_runnable`` (-> ``_next_start`` per busy thread) ->
``_next_start`` again -> ``_run_chunk`` (-> ``_next_start`` a third time,
two ``registry.add`` calls, the ``done`` property).  ``src/`` now selects,
starts and replays the next chunk in one routine; the helpers live on
here, verbatim, as the reference the pump pair-run in
``tests/test_sched_properties.py`` compares against step for step: thread
horizons, task cursors, the channel horizon, every ``sched.*`` counter and
the emitted trace events.

:class:`OracleScheduler` is the scheduler with its replay swapped for the
parent's; capture (``_start_rounds`` / ``_capture`` / ``_chunkify``)
is shared with the class under test.

That one routine then still selected afresh after every chunk and bumped ``sched.chunks_executed`` / ``sched.bg_busy_us`` per
chunk; ``src/`` now replays the chosen thread's chunks as a run while
each starts before the runner-up's ready time.  :class:`ChunkReplayScheduler`
keeps the per-chunk ``_replay``, verbatim, as the second reference.

Both references know the flush lane, and only that: a captured flush is
the one task on ``flush_lane``, which comes last in the selection
(``_lanes``; first while a writer waits for it) and shares the channel
with the threads; while it holds the flush, a task captured after it (a
larger task id) starts no IO chunk.
The stop stall surrenders when no compaction thread holds a task and the
queue is empty.
"""

from math import inf
from typing import Optional, Tuple

from repro.errors import CompactionError
from repro.lsm.compaction import MAX_ROUNDS_PER_PASS
from repro.lsm.stats import ACT_WRITE_KEY
from repro.obs.events import EV_SCHED_TASK_DONE
from repro.sched.scheduler import BackgroundThread, CompactionScheduler
from repro.ssd.clock import CAPTURE_IO


class OracleScheduler(CompactionScheduler):
    """``CompactionScheduler`` replaying chunks the way PR 22 did."""

    @classmethod
    def install(cls, db) -> "OracleScheduler":
        """Swap a fresh DB's scheduler for the oracle (before any work)."""
        db.sched = cls(db)
        return db.sched

    def on_operation(self) -> None:
        now = self.db.clock.now()
        self.pump(now)
        self._start_rounds(now)

    def pump(self, until_us: float) -> None:
        while True:
            self._assign_idle()
            thread = self._earliest_runnable()
            if thread is None or self._next_start(thread) >= until_us:
                return
            self._run_chunk(thread)

    def drain(self) -> float:
        clock = self.db.clock
        last = clock.now()
        while True:
            self._assign_idle()
            thread = self._earliest_runnable()
            if thread is None:
                break
            end, _ = self._run_chunk(thread)
            if end > last:
                last = end
        return clock.advance_to(last)

    def stall_until_l0_below(self, limit: int) -> float:
        db = self.db
        version = db.version
        start = db.clock.now()
        rounds = 0
        while len(version.levels[0]) >= limit:
            now = db.clock.now()
            self.pump(now)
            if self._start_rounds(now):
                rounds += 1
                if rounds > MAX_ROUNDS_PER_PASS:
                    raise CompactionError(
                        f"L0 stop stall did not converge within "
                        f"{MAX_ROUNDS_PER_PASS} rounds"
                    )
                continue
            if not self.queue and all(t.task is None for t in self.threads):
                break
            self._advance_to_next_completion()
        # The stop stall's accounting, which the engine owns.
        duration = db.clock.now() - start
        self._count(ACT_WRITE_KEY, duration)
        self._count("sched.stall_events")
        self._count("sched.stall_time_us", duration)
        return duration

    def _assign_idle(self) -> None:
        while self.queue:
            idle = [t for t in self.threads if t.task is None]
            if not idle:
                return
            thread = min(idle, key=lambda t: (t.free_at_us, t.index))
            task = self.queue.popleft()
            thread.task = task
            if task.enqueued_us > thread.free_at_us:
                thread.free_at_us = task.enqueued_us

    def _next_start(self, thread: BackgroundThread) -> float:
        kind, _ = thread.task.chunks[thread.task.next_chunk]
        if kind == CAPTURE_IO and self.channel.busy_until_us > thread.free_at_us:
            return self.channel.busy_until_us
        return thread.free_at_us

    def _earliest_runnable(self) -> Optional[BackgroundThread]:
        best: Optional[BackgroundThread] = None
        best_start = 0.0
        for thread in self._lanes:
            if thread.task is None or _waits_for_flush(self, thread):
                continue
            start = self._next_start(thread)
            if best is None or start < best_start:
                best = thread
                best_start = start
        return best

    def _run_chunk(self, thread: BackgroundThread) -> Tuple[float, bool]:
        task = thread.task
        kind, duration = task.chunks[task.next_chunk]
        start = self._next_start(thread)
        end = start + duration
        thread.free_at_us = end
        if kind == CAPTURE_IO:
            self.channel.occupy_until(end)
        task.next_chunk += 1
        self._count("sched.chunks_executed")
        self._count("sched.bg_busy_us", duration)
        completed = task.done
        if completed:
            thread.task = None
            self._count("sched.tasks_completed")
            tracer = self.db.tracer
            if tracer.active:
                tracer.emit(
                    EV_SCHED_TASK_DONE,
                    task_id=task.task_id,
                    policy=task.policy,
                    completed_us=end,
                )
        return end, completed

    def _advance_to_next_completion(self) -> bool:
        clock = self.db.clock
        while True:
            self._assign_idle()
            thread = self._earliest_runnable()
            if thread is None:
                return False
            end, completed = self._run_chunk(thread)
            if completed:
                clock.advance_to(end)
                return True


def _waits_for_flush(sched: CompactionScheduler, thread: BackgroundThread) -> bool:
    """True when ``thread``'s next chunk is IO of a task captured after the
    flush the lane holds."""
    task = thread.task
    flush = sched.flush_lane.task
    return (
        flush is not None
        and task.task_id > flush.task_id
        and task.chunks[task.next_chunk][0] == CAPTURE_IO
    )


class ChunkReplayScheduler(CompactionScheduler):
    """``CompactionScheduler`` replaying one chunk per selection."""

    @classmethod
    def install(cls, db) -> "ChunkReplayScheduler":
        db.sched = cls(db)
        return db.sched

    def _replay(self, until_us: float, first_completion: bool = False) -> float:
        threads = self._lanes
        channel = self.channel
        counters = self.db.registry._counters
        latest = -inf
        while True:
            if self.queue:
                self._assign_idle()
            chosen = None
            start = 0.0
            for thread in threads:
                task = thread.task
                if task is None or _waits_for_flush(self, thread):
                    continue
                ready = thread.free_at_us
                if (
                    task.chunks[task.next_chunk][0] == CAPTURE_IO
                    and channel.busy_until_us > ready
                ):
                    ready = channel.busy_until_us
                if chosen is None or ready < start:
                    chosen = thread
                    start = ready
            if chosen is None or start >= until_us:
                return latest
            task = chosen.task
            kind, duration = task.chunks[task.next_chunk]
            end = start + duration
            chosen.free_at_us = end
            if kind == CAPTURE_IO and end > channel.busy_until_us:
                channel.busy_until_us = end
            task.next_chunk += 1
            counters["sched.chunks_executed"] = (
                counters.get("sched.chunks_executed", 0) + 1
            )
            counters["sched.bg_busy_us"] = (
                counters.get("sched.bg_busy_us", 0) + duration
            )
            if end > latest:
                latest = end
            if task.next_chunk >= len(task.chunks):
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
