"""The pin corpus itself: ``tests/pins.py`` and ``tests/pins.json``."""

import json
import os
import subprocess
import sys

import pytest

from . import pins


def test_every_entry_is_checked_and_every_case_has_an_entry():
    """Read from the suites' ``PIN_CASES`` lists; runs no pinned case."""
    cases = pins.cases()
    assert len(cases) == len(set(cases))
    assert sorted(pins.load()) == sorted(cases)
    for suite in pins.SUITES:
        prefix = suite.removeprefix("test_") + "/"
        assert any(case.startswith(prefix) for case in cases), suite


def test_entries_hold_a_digest_and_headline_numbers_only():
    for case, stored in pins.load().items():
        assert len(stored["digest"]) == 64, case
        assert set(stored) <= {"digest", "reason", *pins.HEADLINE}, case


def test_the_file_is_sorted_with_one_entry_per_line():
    text = pins.PINS.read_text(encoding="utf-8")
    lines = text.splitlines()[1:-1]
    keys = [json.loads(line.split(": ", 1)[0]) for line in lines]
    assert keys == sorted(pins.load())


def test_a_fixed_payload_has_a_fixed_digest():
    """Text is hashed as is, anything else through ``repr``; a change to
    either rule would move every pin at once."""
    assert pins.digest("masked stdout\n") == (
        "989b253bf6665636a12395ee7a4b606848c31665005f43ff49305efaf6cb43a0"
    )
    assert pins.digest((1, 2.5, "x", b"\x00", [("k", 3)])) == (
        "4e3e75a0838be7bef693c3189a5c5a0a386075dcc6ac80f2cfc7254f7917672c"
    )


def test_a_moved_pin_names_its_headline_old_and_new(monkeypatch):
    old = pins.entry("before", elapsed_us=100.0, write_amp=2.0)
    monkeypatch.setattr(pins, "_corpus", lambda: {"suite/case": old})
    pins.check("suite/case", "before", elapsed_us=100.0, write_amp=2.0)
    with pytest.raises(AssertionError) as raised:
        pins.check("suite/case", "after", elapsed_us=110.0, write_amp=2.0)
    message = str(raised.value)
    assert "elapsed_us 100.000 -> 110.000 (+10.00%)" in message
    assert "write_amp 2.000 -> 2.000" in message
    assert pins.COMMAND in message
    with pytest.raises(AssertionError, match="no entry"):
        pins.check("suite/other", "before")


def test_an_unknown_headline_number_is_refused():
    with pytest.raises(TypeError):
        pins.entry("payload", throughput=1.0)


def test_write_is_refused_under_ci_and_touches_nothing():
    before = pins.PINS.read_bytes()
    done = subprocess.run(
        [sys.executable, "-m", "tests.pins", "--write", "a reason"],
        cwd=pins.TESTS.parent, env=dict(os.environ, CI="1"),
        capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "CI" in done.stderr
    assert pins.PINS.read_bytes() == before
