"""docs/METRICS.md documents every metric key the program emits — no more,
no less.

The catalogue is a markdown table, one row per key or key pattern.  This
test parses it, runs the pin-first matrix of ``tests/test_ledger_identity``
(every policy x every device stack, one serve) plus the
scenarios the matrix leaves out by design — its fault plans are empty and
its runs never stall — and fails on

* an emitted key no row matches (or one matches with the wrong kind), and
* a row nothing emits (a documented metric that no longer exists).

Its "Trace events" table is checked the same way against
``ALL_EVENT_KINDS`` and the payloads of one traced tiny run per device
stack.

Patterns: ``<name>`` stands for one dotted segment and ``{a,b}`` for
alternatives.
"""

from __future__ import annotations

import pathlib
import re
from collections import defaultdict
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Tuple

import pytest

from repro import DB, DeviceConfig, FlashSpec, SimulatedSSD, Tracer
from repro.errors import CorruptionError, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.harness.runner import execute_operations
from repro.obs.events import ALL_EVENT_KINDS
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.tracer import TraceSink
from repro.ssd.metrics import USER_READ

from .test_ledger_identity import (
    FLASH,
    KIB,
    emitted_snapshots,
    make_key,
    mixed_operations,
    small,
)

CATALOGUE = pathlib.Path(__file__).parent.parent / "docs" / "METRICS.md"
KINDS = ("counter", "gauge")


def rows() -> List[Tuple[str, str, str, str]]:
    """The table's ``(pattern, kind, unit, written by)`` rows."""
    table = []
    for line in CATALOGUE.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`") and cells[1] in KINDS:
            table.append((cells[0].strip("`"), *cells[1:]))
    return table


def compile_pattern(pattern: str) -> "re.Pattern[str]":
    """``device.<dir>.<category>.{ops,bytes}`` -> a regex over whole keys."""
    out = []
    for token in re.split(r"(<\w+>|\{[^}]*\})", pattern):
        if token.startswith("<"):
            out.append(r"[^.]+")
        elif token.startswith("{"):
            out.append("(?:%s)" % "|".join(map(re.escape, token[1:-1].split(","))))
        else:
            out.append(re.escape(token))
    return re.compile("".join(out))


def matching_row(key: str, kind: str, table) -> "str | None":
    """The pattern of the row documenting ``key`` as a ``kind``."""
    for pattern, row_kind, *_ in table:
        if row_kind == kind and compile_pattern(pattern).fullmatch(key):
            return pattern
    return None


def stalled_store() -> MetricsSnapshot:
    """Level 0 over both triggers with one background thread: the write
    throttle's engine and scheduler counters, and a crash that discards
    in-flight chunks before the WAL is replayed."""
    db = DB(config=small(bg_threads=1), policy="udc")
    db._l0_slowdown, db._l0_stop = 1, 2
    for index in range(600):
        db.put(make_key(index % 250), b"s" * 60)
    db.crash_and_recover()
    return db.metrics()


def faulted_store() -> MetricsSnapshot:
    """One of each injection: a torn WAL append and its recovery, and a
    corrupted block a get detects."""
    plan = FaultPlan().crash_at(40, category="wal_write", torn_fraction=0.5)
    flash = FlashSpec(page_bytes=512, pages_per_block=64,
                      logical_bytes=96 * KIB, erase_us=200.0)
    db = DB(config=small(), policy="ldc", fault_plan=plan,
            profile=DeviceConfig(flash=flash))
    for index in range(900):
        try:
            db.put(make_key(index % 300), b"f" * 70)
        except SimulatedCrash:
            db.crash_and_recover()
    plan.corrupt_read(db.device.faults.read_count + 1)
    with pytest.raises(CorruptionError):
        for index in range(300):
            db.get(make_key(index))
    return db.metrics()


def unverified_read() -> MetricsSnapshot:
    """A corrupted read nobody verifies: the defect counter's one emitter."""
    device = SimulatedSSD(fault_plan=FaultPlan().corrupt_read(1))
    device.read(512, USER_READ)
    device.read(512, USER_READ)
    return MetricsSnapshot.capture(device.registry, device.clock.now())


def everything_emitted() -> Iterable[Tuple[str, str]]:
    """``(key, kind)`` for every metric of every run above."""
    scenarios = [stalled_store(), faulted_store(), unverified_read()]
    for snapshot in emitted_snapshots() + scenarios:
        for key in snapshot.counters:
            yield key, "counter"
        for key in snapshot.gauges:
            yield key, "gauge"


def test_the_table_parses_and_is_well_formed() -> None:
    table = rows()
    assert len(table) > 60
    patterns = [pattern for pattern, *_ in table]
    assert len(set(patterns)) == len(patterns), "a key is documented twice"
    for pattern, kind, unit, writer in table:
        assert unit and writer, pattern


def test_every_emitted_key_is_documented_and_every_row_is_emitted() -> None:
    table = rows()
    emitted: Dict[str, set] = {pattern: set() for pattern, *_ in table}
    undocumented = set()
    for key, kind in set(everything_emitted()):
        pattern = matching_row(key, kind, table)
        if pattern is None:
            undocumented.add((key, kind))
        else:
            emitted[pattern].add(key)
    assert not undocumented, sorted(undocumented)
    silent = sorted(pattern for pattern, keys in emitted.items() if not keys)
    assert not silent, f"documented but never emitted: {silent}"


# ----------------------------------------------------------------------
# Trace events
# ----------------------------------------------------------------------
def event_rows() -> Dict[str, FrozenSet[str]]:
    """The "Trace events" table: kind -> its documented payload fields."""
    text = CATALOGUE.read_text().split("\n## Trace events\n", 1)[1]
    table: Dict[str, FrozenSet[str]] = {}
    for line in text.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            assert cells[0].strip("`") not in table, f"{cells[0]} documented twice"
            table[cells[0].strip("`")] = frozenset(re.findall(r"`(\w+)`", cells[2]))
    return table


class FieldSink(TraceSink):
    """Records the payload field names seen per event kind, not the events."""

    def __init__(self) -> None:
        self.fields: Dict[str, set] = defaultdict(set)

    def emit(self, event) -> None:
        self.fields[event.kind].update(event.fields)


STACKS = ("plain", "sched", "flash", "plan")


@lru_cache(maxsize=None)
def traced_run(stack: str) -> Dict[str, set]:
    """One tiny LDC run on ``stack``; kind -> payload fields it emitted."""
    sink = FieldSink()
    plan = None
    if stack == "plan":
        plan = FaultPlan().crash_at(40, category="wal_write")
    db = DB(
        config=small(bg_threads=1 if stack == "sched" else 0),
        policy="ldc",
        profile=DeviceConfig(flash=FLASH) if stack == "flash" else DeviceConfig(),
        tracer=Tracer([sink]),
        fault_plan=plan,
    )
    if stack == "sched":
        db._l0_slowdown, db._l0_stop = 1, 2  # stall under the scheduler
    if stack != "plan":
        execute_operations(db, mixed_operations(), workload_name="trace")
        return sink.fields
    for index in range(900):
        try:
            db.put(make_key(index % 300), b"f" * 70)
        except SimulatedCrash:
            db.crash_and_recover()
    plan.corrupt_read(db.device.faults.read_count + 1)
    with pytest.raises(CorruptionError):
        for index in range(300):
            db.get(make_key(index))
    return sink.fields


def test_every_event_kind_has_exactly_one_row() -> None:
    table = event_rows()
    assert sorted(table) == sorted(ALL_EVENT_KINDS)
    assert all(table.values()), "a row lists no payload field"


@pytest.mark.parametrize("stack", STACKS)
def test_every_emitted_payload_field_is_documented(stack) -> None:
    table = event_rows()
    for kind, fields in traced_run(stack).items():
        assert kind in table, f"undocumented event kind {kind!r}"
        assert fields == table[kind], (kind, sorted(fields), sorted(table[kind]))


def test_the_traced_runs_emit_every_kind() -> None:
    """So every row's field list above was checked against a payload."""
    seen = set().union(*(traced_run(stack) for stack in STACKS))
    assert seen == set(ALL_EVENT_KINDS)
