"""docs/METRICS.md documents every metric key the program emits — no more,
no less.

The catalogue is a markdown table, one row per key or key pattern.  This
test parses it, runs the pin-first matrix of ``tests/test_ledger_identity``
(every policy x every device stack, one serve, one sharded run) plus the
scenarios the matrix leaves out by design — its fault plans are empty, its
runs never stall and seek compaction is opt-in — and fails on

* an emitted key no row matches (or one matches with the wrong kind), and
* a row nothing emits (a documented metric that no longer exists).

Patterns: ``<name>`` stands for one dotted segment (``<i>`` for an
integer), ``{a,b}`` for alternatives, and a trailing ``<key>`` for any
other documented key (the ``shard.<i>.`` re-keying of a whole snapshot).
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
from typing import Dict, Iterable, List, Tuple

import pytest

from repro import DB, DeviceConfig, FlashSpec, SimulatedSSD
from repro.errors import CorruptionError, PersistentIOError, SimulatedCrash
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.obs.aggregate import is_level_gauge
from repro.obs.snapshot import MetricsSnapshot
from repro.ssd.metrics import USER_READ

from .test_ledger_identity import KIB, emitted_snapshots, make_key, small

CATALOGUE = pathlib.Path(__file__).parent.parent / "docs" / "METRICS.md"
KINDS = ("counter", "gauge")
FOLDS = ("sum", "max", "not folded")


def rows() -> List[Tuple[str, str, str, str, str]]:
    """The table's ``(pattern, kind, unit, written by, fold)`` rows."""
    table = []
    for line in CATALOGUE.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`") and cells[1] in KINDS:
            table.append((cells[0].strip("`"), *cells[1:]))
    return table


def compile_pattern(pattern: str) -> "re.Pattern[str]":
    """``device.<dir>.<category>.{ops,bytes}`` -> a regex over whole keys."""
    out = []
    for token in re.split(r"(<\w+>|\{[^}]*\})", pattern):
        if token == "<i>":
            out.append(r"\d+")
        elif token == "<key>":
            out.append(r"(?P<key>.+)")
        elif token.startswith("<"):
            out.append(r"[^.]+")
        elif token.startswith("{"):
            out.append("(?:%s)" % "|".join(map(re.escape, token[1:-1].split(","))))
        else:
            out.append(re.escape(token))
    return re.compile("".join(out))


def matching_row(key: str, kind: str, table) -> "str | None":
    """The pattern of the row documenting ``key`` as a ``kind``."""
    for pattern, row_kind, *_ in table:
        found = compile_pattern(pattern).fullmatch(key)
        if found is None:
            continue
        if "key" in found.groupdict():  # a re-keyed snapshot: look inside
            if matching_row(found.group("key"), kind, table) is not None:
                return pattern
        elif row_kind == kind:
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
    """One of each injection: retried and persistent transient errors, a
    torn WAL append and its recovery, a corrupted block a get detects."""
    plan = FaultPlan(RetryPolicy(max_attempts=3, backoff_us=50.0))
    plan.transient(4, failures=2).transient(9, failures=5)
    plan.crash_at(40, category="wal_write", torn_fraction=0.5)
    flash = FlashSpec(page_bytes=512, pages_per_block=64,
                      logical_bytes=96 * KIB, erase_us=200.0)
    db = DB(config=small(), policy="ldc", fault_plan=plan,
            profile=DeviceConfig(flash=flash))
    for index in range(900):
        try:
            db.put(make_key(index % 300), b"f" * 70)
        except PersistentIOError:
            pass
        except SimulatedCrash:
            db.crash_and_recover()
    plan.corrupt_read(db.device.faults.read_count + 1)
    with pytest.raises(CorruptionError):
        for index in range(300):
            db.get(make_key(index))
    return db.metrics()


def seek_compacted_store() -> MetricsSnapshot:
    """Opt-in seek compaction: misses inside one file's range exhaust its
    probe budget (Bloom off, so every probe reaches the file)."""
    config = dataclasses.replace(
        small(), seek_compaction_enabled=True, bloom_bits_per_key=0
    )
    db = DB(config=config, policy="udc")
    for index in range(400):
        db.put(make_key(index), b"k" * 60)
    db.flush()
    db.policy.maybe_compact()
    for _ in range(400):
        db.get(make_key(5) + b"x")
    return db.metrics()


def unverified_read() -> MetricsSnapshot:
    """A corrupted read nobody verifies: the defect counter's one emitter."""
    device = SimulatedSSD(fault_plan=FaultPlan().corrupt_read(1))
    device.read(512, USER_READ)
    device.read(512, USER_READ)
    return MetricsSnapshot.capture(device.registry, device.clock.now())


def everything_emitted() -> Iterable[Tuple[str, str]]:
    """``(key, kind)`` for every metric of every run above."""
    scenarios = [stalled_store(), faulted_store(), seek_compacted_store(),
                 unverified_read()]
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
    for pattern, kind, unit, writer, fold in table:
        assert unit and writer, pattern
        assert fold in FOLDS, (pattern, fold)
        if kind == "counter":
            assert fold != "max", pattern


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


def test_the_fold_column_is_what_the_fold_does() -> None:
    """``max`` rows are exactly the gauges ``aggregate_snapshots`` folds by
    max; every other folded row is a key-wise sum."""
    for pattern, kind, _, _, fold in rows():
        if kind != "gauge" or fold == "not folded":
            continue
        sample = re.sub(r"<\w+>", "ldc", pattern)
        assert is_level_gauge(sample) == (fold == "max"), pattern
