"""Deterministic open-loop Poisson arrivals in virtual time.

Closed-loop replay issues the next request the instant the previous one
returns, so the client-perceived latency can never exceed the service
time.  Production clients do not wait for each other: requests arrive
from an external *arrival process*, and when the store is slow the
arrivals keep coming — the queue grows and the measured latency is
``queue wait + service time``.  This module generates that arrival
stream, in the same virtual microseconds the engine's
:class:`~repro.ssd.clock.SimClock` runs on, with the same determinism
contract as the workload generator: the stream is derived from a
``numpy`` :class:`~numpy.random.SeedSequence`, so a seed fully determines
every arrival timestamp on every platform.

:class:`PoissonProcess` — memoryless arrivals at a constant rate, the
M/·/1 baseline of every queueing model — is the one process;
:func:`poisson_arrivals` draws a run's timestamps from it.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate, chain, islice, repeat, starmap
from typing import Iterator, List

import numpy as np

from ..errors import ConfigError


def require_count(name: str, value: object, minimum: int = 1) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a plain ``int`` (not a
    float, not a ``bool``) of at least ``minimum``."""
    if type(value) is bool or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def require_positive(name: str, value: object) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite number > 0
    (a NaN compares false against every SLO and would launder them all)."""
    if (
        type(value) is bool
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")


class PoissonProcess:
    """Homogeneous Poisson arrivals: i.i.d. exponential inter-arrival gaps.

    :meth:`arrivals` accumulates :meth:`intervals` into absolute virtual
    timestamps; the property suite pins the contract that the n-th
    arrival timestamp equals the running sum of the first n intervals,
    accumulated in order.
    """

    #: Gaps drawn per generator call: a block draw consumes the bit
    #: stream exactly like that many scalar draws, so the sequence is the
    #: same one (pinned by ``tests/test_serve_properties.py``).
    _BLOCK = 4096

    def __init__(self, rate_ops_s: float) -> None:
        require_positive("arrival rate", rate_ops_s)
        self.rate_ops_s = rate_ops_s

    @property
    def mean_interval_us(self) -> float:
        """Long-run average gap between arrivals."""
        return 1e6 / self.rate_ops_s

    def intervals(self, rng: np.random.Generator) -> Iterator[float]:
        """Gaps drawn a block at a time and chained at C level: no Python
        frame runs per gap."""
        blocks = starmap(rng.exponential, repeat((self.mean_interval_us, self._BLOCK)))
        return chain.from_iterable(map(np.ndarray.tolist, blocks))

    def arrivals(self, rng: np.random.Generator) -> Iterator[float]:
        """Absolute arrival timestamps: the running sum of the intervals,
        accumulated in order at C level (``0.0 + gap`` is ``gap`` for the
        first one, so the sums are the per-gap loop's bit for bit)."""
        return accumulate(self.intervals(rng))


def poisson_arrivals(rate_ops_s: float, seed: int, limit: int) -> List[float]:
    """The first ``limit`` arrival timestamps at ``rate_ops_s``, a pure
    function of ``(rate_ops_s, seed)``.

    The generator is seeded from the first child of
    ``SeedSequence(seed)``, not from the seed itself: that is the stream
    a one-tenant population drew when arrivals were merged per tenant,
    so every pinned serve run keeps its arrivals.
    """
    require_count("seed", seed, minimum=0)
    require_count("limit", limit, minimum=0)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(child))
    return list(islice(PoissonProcess(rate_ops_s).arrivals(rng), limit))
