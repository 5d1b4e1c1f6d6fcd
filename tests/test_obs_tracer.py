"""Tests for the event tracer, sinks and event filtering."""

from __future__ import annotations

import io
import json

import pytest

from repro import DB, RingBufferSink, TraceEvent, Tracer
from repro.errors import ReproError
from repro.lsm.config import LSMConfig
from repro.obs import (
    ALL_EVENT_KINDS,
    EV_COMPACTION_ROUND,
    EV_DEVICE_WRITE,
    EV_FLUSH,
    JsonLinesSink,
    summarize_events,
)
from repro.ssd.clock import SimClock

from tests.conftest import key_of


class TestTraceEvent:
    def test_fields_accessible(self) -> None:
        event = TraceEvent(kind=EV_FLUSH, t_us=12.5, fields={"nbytes": 4096})
        assert event["nbytes"] == 4096
        assert event.get("missing", 7) == 7
        assert event.to_dict() == {"kind": EV_FLUSH, "t_us": 12.5, "nbytes": 4096}

    def test_frozen(self) -> None:
        event = TraceEvent(kind=EV_FLUSH, t_us=0.0, fields={})
        with pytest.raises(Exception):
            event.kind = "other"  # type: ignore[misc]


class TestTracer:
    def test_inert_without_sinks(self) -> None:
        tracer = Tracer()
        assert not tracer.active
        assert tracer.emit(EV_FLUSH, nbytes=1) is None
        assert tracer.events_emitted == 0

    def test_emit_timestamps_from_clock(self) -> None:
        clock = SimClock()
        ring = RingBufferSink()
        tracer = Tracer([ring], clock=clock)
        clock.advance(42.0)
        event = tracer.emit(EV_FLUSH, nbytes=1)
        assert event is not None
        assert event.t_us == pytest.approx(42.0)
        assert ring.events == [event]

    def test_kind_filter(self) -> None:
        ring = RingBufferSink()
        tracer = Tracer([ring], kinds=[EV_FLUSH])
        assert tracer.wants(EV_FLUSH)
        assert not tracer.wants(EV_COMPACTION_ROUND)
        tracer.emit(EV_COMPACTION_ROUND, bytes_read=1)
        tracer.emit(EV_FLUSH, nbytes=1)
        assert [e.kind for e in ring.events] == [EV_FLUSH]

    def test_add_and_remove_sink(self) -> None:
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink())
        assert tracer.active
        tracer.remove_sink(ring)
        assert not tracer.active


class TestRingBufferSink:
    def test_capacity_bound(self) -> None:
        ring = RingBufferSink(capacity=4)
        tracer = Tracer([ring])
        for index in range(10):
            tracer.emit(EV_FLUSH, seq=index)
        assert len(ring) == 4
        assert [e["seq"] for e in ring.events] == [6, 7, 8, 9]

    def test_events_of_filters_by_kind(self) -> None:
        ring = RingBufferSink()
        tracer = Tracer([ring])
        tracer.emit(EV_FLUSH, nbytes=1)
        tracer.emit(EV_DEVICE_WRITE, nbytes=2)
        tracer.emit(EV_FLUSH, nbytes=3)
        assert len(ring.events_of(EV_FLUSH)) == 2
        assert len(ring.events_of(EV_DEVICE_WRITE)) == 1

    def test_invalid_capacity(self) -> None:
        with pytest.raises(ReproError):
            RingBufferSink(capacity=0)

    def test_clear(self) -> None:
        ring = RingBufferSink()
        Tracer([ring]).emit(EV_FLUSH)
        ring.clear()
        assert len(ring) == 0


class TestJsonLinesSink:
    def test_writes_parseable_lines(self, tmp_path) -> None:
        path = str(tmp_path / "trace.jsonl")
        sink = JsonLinesSink(path)
        tracer = Tracer([sink])
        tracer.emit(EV_FLUSH, nbytes=100, tables=1)
        tracer.emit(EV_COMPACTION_ROUND, bytes_read=5, bytes_written=9)
        tracer.close()
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert [line["kind"] for line in lines] == [EV_FLUSH, EV_COMPACTION_ROUND]
        assert lines[0]["nbytes"] == 100
        assert lines[1]["bytes_written"] == 9

    def test_stream_target_not_closed(self) -> None:
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        Tracer([sink]).emit(EV_FLUSH)
        sink.close()
        assert not stream.closed
        assert stream.getvalue().count("\n") == 1

    def test_emit_after_close_raises(self, tmp_path) -> None:
        sink = JsonLinesSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ReproError):
            sink.emit(TraceEvent(kind=EV_FLUSH, t_us=0.0, fields={}))


class TestDBIntegration:
    def test_db_binds_clock_and_emits(self, tiny_config: LSMConfig) -> None:
        ring = RingBufferSink()
        tracer = Tracer([ring])
        db = DB(config=tiny_config, policy="ldc", tracer=tracer)
        assert tracer.clock is db.clock
        for index in range(400):
            db.put(key_of(index), b"v" * 64)
        kinds = summarize_events(ring.events)
        assert kinds.get("flush", 0) > 0
        assert all(kind in ALL_EVENT_KINDS for kind in kinds)
        # events carry virtual-clock timestamps in order
        stamps = [event.t_us for event in ring.events]
        assert stamps == sorted(stamps)
        db.close()
