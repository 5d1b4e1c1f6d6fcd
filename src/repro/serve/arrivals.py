"""Deterministic open-loop arrival processes in virtual time.

Closed-loop replay issues the next request the instant the previous one
returns, so the client-perceived latency can never exceed the service
time.  Production clients do not wait for each other: requests arrive
from an external *arrival process*, and when the store is slow the
arrivals keep coming — the queue grows and the measured latency is
``queue wait + service time``.  This module generates those arrival
processes, in the same virtual microseconds the engine's
:class:`~repro.ssd.clock.SimClock` runs on, with the same determinism
contract as the workload generator: every stream is derived from a
``numpy`` :class:`~numpy.random.SeedSequence`, so a seed fully determines
every arrival timestamp on every platform.

Three process families cover the profiles the serving experiments need:

* :class:`PoissonProcess` — memoryless arrivals at a constant rate, the
  M/·/1 baseline of every queueing model;
* :class:`OnOffProcess` — a two-state Markov-modulated process (MMPP):
  exponential dwell times alternate between a burst rate and a quiet
  rate with the same long-run average, producing the arrival
  clumping that stresses a bounded queue far beyond Poisson;
* :class:`DiurnalProcess` — a non-homogeneous Poisson process whose rate
  follows a repeating daily profile (thinning construction), for
  peak-vs-trough load curves.

**Multi-tenant scaling.**  A :class:`Tenant` aggregates an entire client
population into one rate: a million simulated users at 0.5 op/s each is
a single tenant with ``rate_ops_s == 500_000`` — per-tenant rate
aggregation keeps the simulation O(requests), never O(users).  Use
:meth:`Tenant.of_population` for the explicit population form.
:func:`merge_tenant_arrivals` interleaves every tenant's private stream
into one time-ordered arrival sequence.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat, starmap
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..errors import ConfigError

#: One merged arrival: ``(arrival_us, tenant_index)``.
Arrival = Tuple[float, int]


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


@dataclass(frozen=True)
class Tenant:
    """One client population, aggregated to a single offered rate.

    Parameters
    ----------
    name:
        Stable identifier; also the ``tenant.<name>.`` metrics namespace.
    rate_ops_s:
        Aggregate offered load of the whole population, in operations
        per *virtual* second.
    population:
        Number of simulated users the rate aggregates (informational —
        the simulation never materialises per-user state).
    priority:
        Queue priority under the ``"priority"`` discipline; lower values
        are served first, ties served FIFO.
    slo_us:
        Per-tenant latency SLO in virtual microseconds (queue wait +
        service); ``None`` inherits the serve-wide SLO.
    """

    name: str
    rate_ops_s: float
    population: int = 1
    priority: int = 0
    slo_us: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        require_positive(f"tenant {self.name!r} rate_ops_s", self.rate_ops_s)
        require_count(f"tenant {self.name!r} population", self.population)
        if self.slo_us is not None:
            require_positive(f"tenant {self.name!r} slo_us", self.slo_us)

    @property
    def per_user_rate_ops_s(self) -> float:
        """The rate each simulated user contributes."""
        return self.rate_ops_s / self.population

    @classmethod
    def of_population(
        cls,
        name: str,
        users: int,
        per_user_rate_ops_s: float,
        priority: int = 0,
        slo_us: Optional[float] = None,
    ) -> "Tenant":
        """Build a tenant from an explicit population × per-user rate."""
        return cls(
            name=name,
            rate_ops_s=users * per_user_rate_ops_s,
            population=users,
            priority=priority,
            slo_us=slo_us,
        )


class ArrivalProcess:
    """Base class: a deterministic stream of inter-arrival gaps.

    Subclasses implement :meth:`intervals`; :meth:`arrivals` is the
    shared accumulation into absolute virtual timestamps.  The property
    suite pins the contract that the n-th arrival timestamp equals the
    running sum of the first n intervals, accumulated in order.
    """

    kind = "abstract"

    def __init__(self, rate_ops_s: float) -> None:
        require_positive("arrival rate", rate_ops_s)
        self.rate_ops_s = rate_ops_s

    @property
    def mean_interval_us(self) -> float:
        """Long-run average gap between arrivals."""
        return 1e6 / self.rate_ops_s

    def intervals(self, rng: np.random.Generator) -> Iterator[float]:
        raise NotImplementedError

    def arrivals(self, rng: np.random.Generator) -> Iterator[float]:
        """Absolute arrival timestamps: the running sum of the intervals,
        accumulated in order at C level (``0.0 + gap`` is ``gap`` for the
        first one, so the sums are the per-gap loop's bit for bit)."""
        return accumulate(self.intervals(rng))


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals: i.i.d. exponential inter-arrival gaps."""

    kind = "poisson"

    #: Gaps drawn per generator call: a block draw consumes the bit
    #: stream exactly like that many scalar draws, so the sequence is the
    #: same one (pinned by ``tests/test_serve_properties.py``).
    _BLOCK = 4096

    def intervals(self, rng: np.random.Generator) -> Iterator[float]:
        """Gaps drawn a block at a time and chained at C level: no Python
        frame runs per gap."""
        blocks = starmap(rng.exponential, repeat((self.mean_interval_us, self._BLOCK)))
        return chain.from_iterable(map(np.ndarray.tolist, blocks))


class OnOffProcess(ArrivalProcess):
    """Two-state MMPP: bursts at ``burst × rate``, quiet spells below it.

    Exponential dwell times alternate between an ON state (Poisson at
    ``burst * rate_ops_s``) and an OFF state whose rate is chosen so the
    long-run average stays exactly ``rate_ops_s``:

    ``on_fraction * burst + (1 - on_fraction) * off_factor == 1``.

    ``burst < 1 / on_fraction`` is required so the OFF rate stays
    positive.  The default (20% of time at 4x rate, 80% at 0.25x) makes
    a queue that is comfortably stable on average overflow during
    bursts — the admission-control stress profile.
    """

    kind = "onoff"

    def __init__(
        self,
        rate_ops_s: float,
        burst: float = 4.0,
        on_fraction: float = 0.2,
        mean_cycle_us: float = 50_000.0,
    ) -> None:
        super().__init__(rate_ops_s)
        if not 0 < on_fraction < 1:
            raise ConfigError("on_fraction must lie in (0, 1)")
        if burst <= 1.0:
            raise ConfigError("burst must exceed 1 (else use PoissonProcess)")
        if burst >= 1.0 / on_fraction:
            raise ConfigError(
                f"burst {burst:g} with on_fraction {on_fraction:g} leaves "
                f"no budget for the OFF state (need burst < "
                f"{1.0 / on_fraction:g})"
            )
        if mean_cycle_us <= 0:
            raise ConfigError("mean_cycle_us must be positive")
        self.burst = burst
        self.on_fraction = on_fraction
        self.mean_cycle_us = mean_cycle_us
        self._on_rate = rate_ops_s * burst
        self._off_rate = (
            rate_ops_s * (1.0 - on_fraction * burst) / (1.0 - on_fraction)
        )
        self._on_dwell_us = mean_cycle_us * on_fraction
        self._off_dwell_us = mean_cycle_us * (1.0 - on_fraction)

    def intervals(self, rng: np.random.Generator) -> Iterator[float]:
        on = bool(rng.random() < self.on_fraction)
        state_left_us = float(
            rng.exponential(self._on_dwell_us if on else self._off_dwell_us)
        )
        while True:
            rate = self._on_rate if on else self._off_rate
            gap_us = float(rng.exponential(1e6 / rate))
            # A gap crossing the state boundary is resampled from the new
            # state's rate for the remainder — the standard memoryless
            # construction, so each state's arrivals are exactly Poisson
            # at that state's rate.  The time already spent waiting in
            # earlier states accumulates separately from the fresh sample,
            # which alone is compared against the new state's dwell.
            consumed_us = 0.0
            while gap_us > state_left_us:
                consumed_us += state_left_us
                on = not on
                state_left_us = float(
                    rng.exponential(
                        self._on_dwell_us if on else self._off_dwell_us
                    )
                )
                rate = self._on_rate if on else self._off_rate
                gap_us = float(rng.exponential(1e6 / rate))
            state_left_us -= gap_us
            yield consumed_us + gap_us


#: Relative load over a 24-"hour" day: overnight trough, morning ramp,
#: evening peak — normalised by the constructor so the long-run average
#: rate equals the requested one.
DEFAULT_DIURNAL_PROFILE: Tuple[float, ...] = (
    0.3, 0.25, 0.2, 0.2, 0.25, 0.35, 0.55, 0.8,
    1.0, 1.15, 1.2, 1.25, 1.3, 1.25, 1.2, 1.15,
    1.2, 1.35, 1.55, 1.7, 1.6, 1.3, 0.9, 0.55,
)


class DiurnalProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals following a repeating daily profile.

    The profile is a sequence of relative weights, one per equal slice of
    the (virtual) day; the constructor rescales it so the long-run mean
    rate equals ``rate_ops_s``.  Arrivals are generated by thinning: a
    candidate stream at the peak rate is subsampled with probability
    ``rate(t) / peak`` — the textbook construction, and deterministic
    given the generator.  Virtual days are short (runs simulate seconds,
    not days); ``day_us`` scales the cycle to the run length.
    """

    kind = "diurnal"

    def __init__(
        self,
        rate_ops_s: float,
        profile: Sequence[float] = DEFAULT_DIURNAL_PROFILE,
        day_us: float = 1_000_000.0,
    ) -> None:
        super().__init__(rate_ops_s)
        if len(profile) < 2:
            raise ConfigError("diurnal profile needs at least 2 slices")
        if any(weight <= 0 for weight in profile):
            raise ConfigError("diurnal profile weights must be positive")
        if day_us <= 0:
            raise ConfigError("day_us must be positive")
        mean_weight = sum(profile) / len(profile)
        self.profile = tuple(weight / mean_weight for weight in profile)
        self.day_us = day_us
        self._slice_us = day_us / len(self.profile)
        self._peak = max(self.profile)

    def rate_at(self, t_us: float) -> float:
        """Instantaneous rate at virtual time ``t_us`` (ops/s)."""
        slot = int((t_us % self.day_us) // self._slice_us) % len(self.profile)
        return self.rate_ops_s * self.profile[slot]

    def intervals(self, rng: np.random.Generator) -> Iterator[float]:
        peak_rate = self.rate_ops_s * self._peak
        scale_us = 1e6 / peak_rate
        now_us = 0.0
        since_last_us = 0.0
        while True:
            gap_us = float(rng.exponential(scale_us))
            now_us += gap_us
            since_last_us += gap_us
            if rng.random() * self._peak < self.profile[
                int((now_us % self.day_us) // self._slice_us)
                % len(self.profile)
            ]:
                yield since_last_us
                since_last_us = 0.0


#: Registered arrival-process kinds (CLI ``--arrival`` accepts these).
ARRIVAL_KINDS: Dict[str, Type[ArrivalProcess]] = {
    "poisson": PoissonProcess,
    "onoff": OnOffProcess,
    "diurnal": DiurnalProcess,
}


def make_arrival_process(
    kind: str, rate_ops_s: float, **params: object
) -> ArrivalProcess:
    """Build a registered arrival process (typed error on unknown kind)."""
    cls = ARRIVAL_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(ARRIVAL_KINDS))
        raise ConfigError(
            f"unknown arrival process {kind!r}; known: {known}"
        )
    return cls(rate_ops_s, **params)  # type: ignore[arg-type]


def split_rate(total_rate_ops_s: float, tenants: int) -> List[Tenant]:
    """Equal-rate tenant population: ``tenants`` tenants sharing the rate."""
    require_count("tenant count", tenants)
    require_positive("rate_ops_s", total_rate_ops_s)
    share = total_rate_ops_s / tenants
    return [Tenant(name=f"t{index}", rate_ops_s=share) for index in range(tenants)]


def merge_tenant_arrivals(
    tenants: Sequence[Tenant],
    kind: str,
    seed: int,
    limit: int,
    **params: object,
) -> List[Arrival]:
    """The first ``limit`` arrivals across every tenant, time-ordered.

    Each tenant draws from its own RNG stream (children of one
    :class:`~numpy.random.SeedSequence`), so the merged sequence is a
    pure function of ``(tenants, kind, seed, params)`` — adding a tenant
    never perturbs another tenant's arrivals.  Ties break by tenant
    index, keeping the merge total-ordered and reproducible.

    One lazy ``heapq.merge`` of ``(timestamp, index)`` streams for any
    tenant count, cut by ``islice``: a tenant is drawn only for its head
    and after each arrival of its own the merge yields, never past the
    ``limit``-th.
    """
    if not tenants:
        raise ConfigError("need at least one tenant")
    require_count("limit", limit, minimum=0)
    children = np.random.SeedSequence(seed).spawn(len(tenants))
    streams = [
        zip(
            make_arrival_process(kind, tenant.rate_ops_s, **params).arrivals(
                np.random.Generator(np.random.PCG64(child))
            ),
            repeat(index),
        )
        for index, (tenant, child) in enumerate(zip(tenants, children))
    ]
    return list(islice(heapq.merge(*streams), limit))
