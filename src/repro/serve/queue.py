"""The bounded, admission-controlled request queue of the serving layer.

A single virtual server (the DB) drains this queue; arrivals that find
it full are *rejected with a typed error* instead of growing an unbounded
queue — the admission-control half of tail-latency engineering: a
bounded queue turns overload into explicit, measurable rejections rather
than unbounded queue-wait.  Requests leave in arrival order (FIFO).

The queue also carries the conservation ledger the property suite pins:
every request that ever arrived is accounted for as admitted or
rejected, and every admitted request is either completed or still
queued (``arrived == admitted + rejected``, ``admitted == completed +
depth``), at every point in time.

Two ways to drive it.  ``offer`` / ``pop`` / ``complete`` /
``reject_external`` keep the ledger at every step.  The serve loop,
which moves a request per arrival, instead calls the deque's own C
methods — ``push`` and ``take`` — and books its counts once at the end
(:meth:`book`), where the ledger must balance against the depth it
leaves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, NamedTuple, Optional

from .arrivals import require_count
from ..errors import ConfigError, QueueFullError


class Request(NamedTuple):
    """One open-loop request: an operation with an arrival timestamp.

    ``operation`` is a workload :class:`~repro.workload.ycsb.Operation`;
    the serving loop executes it against the DB exactly like the
    closed-loop runner would.  Requests leave in arrival order, so the
    queue needs no sequence number.

    A plain immutable row: the serving loop builds one per arrival, so it
    is a tuple rather than a frozen dataclass (whose ``__init__`` pays one
    ``object.__setattr__`` per field).
    """

    arrival_us: float
    operation: object


@dataclass
class QueueStats:
    """The conservation ledger (see module docstring)."""

    arrived: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0

    def check_conservation(self, depth: int) -> None:
        """Raise ``AssertionError`` unless the ledger balances."""
        assert self.arrived == self.admitted + self.rejected, self
        assert self.admitted == self.completed + depth, (self, depth)


class RequestQueue:
    """Bounded FIFO queue with typed admission rejection."""

    def __init__(self, capacity: int) -> None:
        require_count("queue capacity", capacity)
        self.capacity = capacity
        self.stats = QueueStats()
        #: The queued requests.  Truth-test or ``len`` it freely; mutate
        #: it only through push / take.
        self.waiting: Deque[Request] = deque()
        #: ``push(request)`` queues a request, ``take()`` removes the
        #: oldest — neither touches the ledger.  A request is any tuple in
        #: :class:`Request`'s field order.
        self.push = self.waiting.append
        self.take = self.waiting.popleft

    @property
    def depth(self) -> int:
        """Requests currently queued (admitted, not yet started)."""
        return len(self.waiting)

    def __len__(self) -> int:
        return len(self.waiting)

    def offer(
        self, request: Request, effective_capacity: Optional[int] = None
    ) -> None:
        """Admit ``request`` or raise :class:`~repro.errors.QueueFullError`.

        ``effective_capacity`` lets the server shrink the admission bound
        below the configured capacity (the back-pressure hook) without
        mutating queue state; it never exceeds ``capacity``.
        """
        bound = self.bound(effective_capacity)
        stats = self.stats
        stats.arrived += 1
        depth = len(self.waiting)
        if depth >= bound:
            stats.rejected += 1
            raise QueueFullError(
                f"request queue full (depth {depth} >= bound {bound})",
                depth=depth,
            )
        stats.admitted += 1
        self.push(request)

    def bound(self, effective_capacity: Optional[int] = None) -> int:
        """The depth at which an arrival is rejected: ``capacity``, or a
        smaller ``effective_capacity`` (never below 1)."""
        if effective_capacity is not None and effective_capacity < self.capacity:
            return max(1, effective_capacity)
        return self.capacity

    def reject_external(self) -> None:
        """Record an arrival the *server* refused before offering it.

        Back-pressure rejections happen at the server (they need engine
        state the queue cannot see); routing them through the ledger
        keeps conservation exact: every arrival is accounted somewhere.
        """
        self.stats.arrived += 1
        self.stats.rejected += 1

    def pop(self) -> Request:
        """The oldest queued request (caller checks ``depth``)."""
        if not self.waiting:
            raise ConfigError("pop from an empty request queue")
        return self.take()

    def complete(self) -> None:
        """Mark one popped request as finished (ledger bookkeeping)."""
        self.stats.completed += 1

    def book(self, arrived: int, rejected: int, completed: int) -> None:
        """Book what a server moved through ``push`` / ``take``, then check
        the ledger: every arrival not rejected was pushed, so ``admitted ==
        completed + depth`` holds only if the server's counts are right."""
        stats = self.stats
        stats.arrived += arrived
        stats.rejected += rejected
        stats.admitted += arrived - rejected
        stats.completed += completed
        stats.check_conservation(len(self.waiting))
