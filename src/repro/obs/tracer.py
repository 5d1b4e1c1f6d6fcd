"""The event tracer: structured engine events through pluggable sinks.

A :class:`Tracer` timestamps :class:`~repro.obs.events.TraceEvent`s on the
virtual clock and fans them out to any number of sinks.  Two sinks ship
with the library:

* :class:`RingBufferSink` — a bounded in-memory buffer for tests and
  interactive inspection;
* :class:`JsonLinesSink` — one JSON object per line to a file, the
  ``repro trace <workload> --trace-out`` format.

A tracer with no sinks is inert: :meth:`Tracer.emit` returns immediately,
so instrumentation hooks stay in place permanently at negligible cost and
tracing is enabled simply by attaching a sink.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Union,
)

from .events import TraceEvent
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..ssd.clock import SimClock


class TraceSink:
    """Interface for trace-event consumers."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further emits are undefined."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity <= 0:
            raise ReproError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def events_of(self, *kinds: str) -> List[TraceEvent]:
        """The buffered events whose kind is in ``kinds``, oldest first."""
        wanted = set(kinds)
        return [event for event in self._events if event.kind in wanted]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonLinesSink(TraceSink):
    """Writes each event as one JSON object per line (JSON-lines).

    Accepts a filesystem path (opened and owned by the sink) or an
    already-open text stream (flushed but not closed by :meth:`close`).
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self._closed = False
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        if self._closed:
            raise ReproError("JsonLinesSink is closed")
        self._stream.write(json.dumps(event.to_dict(), sort_keys=True))
        self._stream.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


class Tracer:
    """Emits timestamped trace events to the attached sinks.

    Parameters
    ----------
    sinks:
        Initial sinks; more can be attached with :meth:`add_sink`.
    clock:
        The virtual clock supplying timestamps.  ``DB`` binds its own
        clock to an unbound tracer at attach time, so
        ``DB(tracer=Tracer([RingBufferSink()]))`` just works.
    kinds:
        Optional whitelist of event kinds; ``None`` records everything.
        High-volume kinds (``device_read``/``device_write``,
        ``cache_hit``/``cache_miss``) can be filtered out this way for
        long runs.
    """

    def __init__(
        self,
        sinks: Iterable[TraceSink] = (),
        clock: Optional["SimClock"] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        self._sinks: List[TraceSink] = list(sinks)
        #: True when at least one sink will receive events.  A plain
        #: attribute kept by :meth:`add_sink` / :meth:`remove_sink`: the
        #: device tests it once per I/O.
        self.active = bool(self._sinks)
        self.clock = clock
        self._kinds = None if kinds is None else frozenset(kinds)
        self.events_emitted = 0

    # ------------------------------------------------------------------
    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach ``sink`` and return it (handy for inline construction)."""
        self._sinks.append(sink)
        self.active = True
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        self._sinks.remove(sink)
        self.active = bool(self._sinks)

    def wants(self, kind: str) -> bool:
        """Would an event of ``kind`` currently be recorded?"""
        if not self._sinks:
            return False
        return self._kinds is None or kind in self._kinds

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> Optional[TraceEvent]:
        """Record one event; returns it, or None when not recorded."""
        if not self.wants(kind):
            return None
        t_us = self.clock.now() if self.clock is not None else 0.0
        event = TraceEvent(kind=kind, t_us=t_us, fields=fields)
        for sink in self._sinks:
            sink.emit(event)
        self.events_emitted += 1
        return event

    def close(self) -> None:
        """Close every sink (flushes file sinks)."""
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer({len(self._sinks)} sinks, "
            f"{self.events_emitted} events emitted)"
        )


def summarize_events(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Event count per kind — the quick shape of a trace."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return dict(sorted(counts.items()))
