"""A fixed reference computation that tells how fast this machine is right now.

The sandbox's speed wanders by 10-30% over tens of seconds (noisy
neighbours; nothing the benchmark does), which would swamp any host-time
metric.  ``Calibrator()`` runs a small, engine-shaped but engine-independent
kernel — dict-backed write buffer, sorted flushes, heap merges of tuple runs,
bisect lookups, byte joins, a numpy stable sort — and returns its CPU time.
``run.py`` brackets every pass with it and scales that pass's CPU time by
``REFERENCE_S / measured``, so host metrics read as if taken on a machine
that always runs the kernel in ``REFERENCE_S``.  The kernel imports nothing
from ``repro``: an engine change cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import time

import numpy as np

#: CPU-seconds the kernel takes on the reference sandbox (2-core Xeon 2.1 GHz,
#: Python 3.11): the speed every host-time metric is scaled to.
REFERENCE_S = 0.050

_KEYS = 24_000
_RUN = 500
_LOOKUPS = 16_000


class Calibrator:
    """Callable returning the kernel's CPU-seconds; inputs are built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20190408)
        order = rng.permutation(_KEYS).tolist()
        self._keys = [b"%016d" % index for index in order]
        self._value = b"v" * 64
        self._probes = [self._keys[i] for i in rng.integers(0, _KEYS, _LOOKUPS)]
        self._column = rng.integers(0, 1 << 40, size=160_000)

    def __call__(self) -> float:
        # Collect first and keep the collector off inside: the kernel's cost
        # must not depend on how large the caller's heap happens to be.
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._kernel()
        finally:
            if was_enabled:
                gc.enable()

    def _kernel(self) -> float:
        start = time.process_time()
        runs = []
        buffer = {}
        for seq, key in enumerate(self._keys):
            buffer[key] = (key, seq, self._value)
            if len(buffer) == _RUN:
                runs.append(sorted(buffer.values()))
                buffer = {}
        merged = []
        previous = None
        for record in heapq.merge(*runs):
            if record[0] != previous:
                merged.append(record)
                previous = record[0]
        index = [record[0] for record in merged]
        blocks = [
            b"".join(record[2] for record in merged[at:at + 16])
            for at in range(0, len(merged), 16)
        ]
        found = 0
        for key in self._probes:
            at = bisect.bisect_left(index, key)
            if merged[at][0] == key and blocks[at // 16]:
                found += 1
        order = np.argsort(self._column, kind="stable")
        checksum = int(self._column[order][::2].sum())
        elapsed = time.process_time() - start
        if found != _LOOKUPS or checksum <= 0:
            raise AssertionError("calibration kernel computed a wrong result")
        return elapsed
