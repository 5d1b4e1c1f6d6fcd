"""One pin corpus: every byte-exact pin of the suite, in ``tests/pins.json``.

A pin holds a tiny run to what it computed when it was pinned.  A pinning
test builds a payload (a run's fingerprint, a metrics snapshot, masked
stdout) and calls :func:`check`, which hashes it with :func:`digest` and
compares the result with the entry ``pins.json[case]`` for exact
equality.  An entry is the digest plus the headline numbers the payload
holds in clear (``elapsed_us``, ``write_amp``, a Bloom filter's
``size_bytes`` / ``hash_count``), so a diff of ``pins.json`` shows how far
a pin moved, and a failing check prints them old and new.

Each suite in :data:`SUITES` names its cases in a module-level
``PIN_CASES`` list; a case is ``suite/<pytest parametrize id>``.  When a
change moves simulated time on purpose, re-pin by command::

    PYTHONPATH=src python -m tests.pins --write "<reason>"

It re-runs the suites, rewrites the moved entries (each with the reason)
and drops the orphaned ones, and prints the moved-pin table that goes
into CHANGES.md.  It refuses to run when ``CI`` is set.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

TESTS = Path(__file__).resolve().parent
PINS = TESTS / "pins.json"
SUITES = (
    "test_cli",
    "test_ledger_identity",
    "test_perf_golden",
    "test_spec_identity",
    "test_harness_runner",
    "test_maintenance_engine",
    "test_retired_oracles",
)
HEADLINE = ("elapsed_us", "write_amp", "size_bytes", "hash_count")
#: Set (to a file path) by ``--write``: :func:`check` appends what it
#: computed to that file instead of comparing.
RECORD = "REPRO_PINS_RECORD"
COMMAND = 'PYTHONPATH=src python -m tests.pins --write "<reason>"'


def digest(payload: object) -> str:
    """SHA-256 of the text itself for a ``str`` payload (masked stdout),
    of ``repr(payload)`` for anything else."""
    text = payload if isinstance(payload, str) else repr(payload)
    return hashlib.sha256(text.encode()).hexdigest()


def entry(payload: object, **headline) -> dict:
    unknown = set(headline) - set(HEADLINE)
    if unknown:
        raise TypeError(f"not a headline number: {sorted(unknown)}")
    return {"digest": digest(payload),
            **{name: headline[name] for name in HEADLINE if name in headline}}


def load() -> Dict[str, dict]:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


#: The file as the test session found it (read once).
_corpus = functools.cache(load)


def _bare(stored: dict) -> dict:
    return {name: value for name, value in stored.items() if name != "reason"}


def check(case: str, payload: object, **headline) -> None:
    """Fail unless ``payload`` digests to the pinned entry of ``case``."""
    new = entry(payload, **headline)
    record = os.environ.get(RECORD)
    if record:
        with open(record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"case": case, **new}) + "\n")
        return
    stored = _corpus().get(case)
    old = None if stored is None else _bare(stored)
    if old == new:
        return
    if old is None:
        message = f"{case} has no entry in tests/pins.json"
    else:
        message = f"pin {case} moved: {_moved(old, new)}"
    if isinstance(payload, str):
        message += "\n" + payload
    raise AssertionError(f"{message}\nre-pin on purpose with: {COMMAND}")


def _moved(old: Optional[dict], new: Optional[dict]) -> str:
    """The headline numbers, old -> new, or the digests if none moved."""
    old, new = old or {}, new or {}
    parts = []
    for name in HEADLINE:
        before, after = old.get(name), new.get(name)
        if before is None and after is None:
            continue
        text = f"{name} {_number(before)} -> {_number(after)}"
        if before != after and before and after is not None:
            text += f" ({(after - before) / before:+.2%})"
        parts.append(text)
    if all(old.get(name) == new.get(name) for name in HEADLINE):
        parts.append(f"digest {old.get('digest', '-')[:12]} -> "
                     f"{new.get('digest', '-')[:12]}")
    return ", ".join(parts)


def _number(value: object) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def cases() -> List[str]:
    """Every case the suites pin, read from their ``PIN_CASES`` lists."""
    found: List[str] = []
    for suite in SUITES:
        found.extend(importlib.import_module(f"tests.{suite}").PIN_CASES)
    return found


def dump(pins: Dict[str, dict]) -> None:
    """Sorted keys, one entry per line."""
    lines = [f"  {json.dumps(case)}: {json.dumps(pins[case])}"
             for case in sorted(pins)]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def measure() -> Dict[str, dict]:
    """Run the suites with :func:`check` recording, and return each case's
    fresh entry."""
    with tempfile.TemporaryDirectory() as workdir:
        record = Path(workdir) / "record.jsonl"
        record.touch()
        path = os.pathsep.join(
            filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])
        )
        env = dict(os.environ, PYTHONPATH=path, **{RECORD: str(record)})
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *(str(TESTS / f"{suite}.py") for suite in SUITES)],
            cwd=TESTS.parent, env=env,
        )
        if done.returncode:
            raise SystemExit("the pin suites fail outside their pins; "
                             "nothing written")
        measured: Dict[str, dict] = {}
        for line in record.read_text(encoding="utf-8").splitlines():
            new = json.loads(line)
            case = new.pop("case")
            if measured.setdefault(case, new) != new:
                raise SystemExit(f"{case} computed two different entries "
                                 "in one run; nothing written")
    return measured


def write(reason: str) -> List[tuple]:
    """Re-pin what moved; return ``(case, old, new)`` for each change."""
    pins = load()
    wanted = set(cases())
    measured = measure()
    missing = sorted(wanted - set(measured))
    if missing:
        raise SystemExit(f"no run checked {missing}; nothing written")
    changes = []
    for case in sorted(wanted | set(pins)):
        old = _bare(pins[case]) if case in pins else None
        new = measured.get(case) if case in wanted else None
        if old == new:
            continue
        changes.append((case, old, new))
        if new is None:
            del pins[case]
        else:
            pins[case] = {**new, "reason": reason}
    if changes:
        dump(pins)
    return changes


def table(changes: List[tuple], reason: str) -> str:
    rows = ["| pin | old -> new | reason |", "|---|---|---|"]
    for case, old, new in changes:
        if new is None:
            moved = "orphaned: deleted"
        elif old is None:
            moved = "new: " + _moved(None, new)
        else:
            moved = _moved(old, new)
        rows.append(f"| `{case}` | {moved} | {reason} |")
    return "\n".join(rows)


def main(argv: List[str]) -> int:
    if len(argv) != 2 or argv[0] != "--write" or not argv[1].strip():
        print(f"usage: {COMMAND}", file=sys.stderr)
        return 2
    if os.environ.get("CI"):
        print("refused: CI is set; re-pin where the reason can be reviewed, "
              "and commit pins.json with the table", file=sys.stderr)
        return 1
    changes = write(argv[1])
    if not changes:
        print("no pin moved")
        return 0
    print(f"{len(changes)} pin(s) re-pinned in tests/pins.json:\n")
    print(table(changes, argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
