"""The metrics registry: the one ledger every component writes.

* every metric is a **counter** (monotonic within a measurement window,
  zeroed by :meth:`MetricsRegistry.reset`) or a **gauge** (a "current
  value" such as LDC's adaptive threshold, untouched by resets);
* metrics are addressed by dotted string keys, ``component.name`` by
  convention (``engine.puts``, ``device.read.user_read.bytes``,
  ``cache.hits``, ``policy.ldc.links``); docs/METRICS.md lists them all;
* the engine, the device, the block cache, the policies and the scheduler
  share one registry per database, so ``db.reset_measurements()`` zeroes
  them together.  Per-operation paths bump ``_counters`` in place (the
  arithmetic of :meth:`MetricsRegistry.add`, without the call).

Nothing reads a live registry except to capture it: every reader — a
report, a ratio, a test — reads a frozen
:class:`~repro.obs.snapshot.MetricsSnapshot` (``db.metrics()``), where
each derived quantity is defined once.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple, Union

Number = Union[int, float]


class MetricsRegistry:
    """Named counters and gauges shared by one database instance."""

    __slots__ = ("_counters", "_gauges")

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}

    def add(self, key: str, amount: Number = 1) -> None:
        """Increment counter ``key`` by ``amount`` (creating it at zero)."""
        counters = self._counters
        counters[key] = counters.get(key, 0) + amount

    def add_many(self, items: "list[tuple[str, Number]]") -> None:
        """Bulk-increment counters from ``(key, amount)`` pairs.

        One call for a batch of prebuilt-key increments (the batched
        device accounting path); identical to calling :meth:`add` per
        pair, including the left-to-right accumulation order for float
        counters.
        """
        counters = self._counters
        get = counters.get
        for key, amount in items:
            counters[key] = get(key, 0) + amount

    def counter(self, key: str, default: Number = 0) -> Number:
        """Current value of counter ``key``."""
        return self._counters.get(key, default)

    def set_gauge(self, key: str, value: Number) -> None:
        """Record the current value of gauge ``key``."""
        self._gauges[key] = value

    def gauge(self, key: str, default: Number = 0) -> Number:
        """Current value of gauge ``key``."""
        return self._gauges.get(key, default)

    def counters(self) -> Dict[str, Number]:
        """A copy of every counter."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Number]:
        """A copy of every gauge."""
        return dict(self._gauges)

    def __iter__(self) -> Iterator[Tuple[str, Number]]:
        return iter(self._counters.items())

    def __contains__(self, key: str) -> bool:
        return key in self._counters or key in self._gauges

    def __len__(self) -> int:
        return len(self._counters)

    def reset(self) -> None:
        """Zero every counter, in place.

        Keys survive (zeroed, preserving int/float-ness) and the counter
        dict keeps its identity, so the components bumping it keep a valid
        reference; gauges are left alone — they describe current state (a
        threshold, a space level), not accumulated measurement.
        """
        for key, value in self._counters.items():
            self._counters[key] = type(value)()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges)"
        )
