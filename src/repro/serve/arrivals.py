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

:func:`poisson_arrivals` — memoryless arrivals at a constant rate, the
M/·/1 baseline of every queueing model — is the one process.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate, chain, islice, repeat, starmap
from typing import List

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


#: Gaps drawn per generator call: a block draw consumes the bit stream
#: exactly like that many scalar draws, so the sequence is the same one
#: (pinned by ``tests/test_serve_properties.py``).
_BLOCK = 4096


def poisson_arrivals(rate_ops_s: float, seed: int, limit: int) -> List[float]:
    """The first ``limit`` arrival timestamps at ``rate_ops_s``, a pure
    function of ``(rate_ops_s, seed)``.

    Homogeneous Poisson arrivals: i.i.d. exponential gaps with mean
    ``1e6 / rate_ops_s`` us, drawn :data:`_BLOCK` at a time and chained,
    then accumulated in order into absolute timestamps (``0.0 + gap`` is
    ``gap`` for the first one, so the n-th timestamp is the running sum of
    the first n gaps, bit for bit).  The whole stream is C iterators: no
    Python frame runs per arrival.

    The generator is seeded from the first child of
    ``SeedSequence(seed)``, not from the seed itself: that is the stream
    a one-tenant population drew when arrivals were merged per tenant,
    so every pinned serve run keeps its arrivals.
    """
    require_count("seed", seed, minimum=0)
    require_count("limit", limit, minimum=0)
    require_positive("arrival rate", rate_ops_s)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(child))
    blocks = starmap(rng.exponential, repeat((1e6 / rate_ops_s, _BLOCK)))
    gaps = chain.from_iterable(map(np.ndarray.tolist, blocks))
    return list(islice(accumulate(gaps), limit))
