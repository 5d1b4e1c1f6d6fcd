"""Workload specifications: the paper's Table III as data.

A :class:`WorkloadSpec` captures everything the generator needs: the
operation mix (insert / point-lookup / scan ratios), the key distribution,
key-space size, key/value sizes, and the request count.  The module-level
constructors (``WO``, ``WH``, ``RWB``, ``RH``, ``RO``, ``SCN_WH``,
``SCN_RWB``, ``SCN_RH``) mirror Table III exactly: 16-byte keys, 1-KB
values, point lookups or 100-record range scans mixed with random
insertions at 100/70/50/30/0 % writes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Any, Dict

from ..errors import WorkloadError

#: Paper defaults (§IV-A): "Each key-value pair is set to have a 16-B key
#: and a 1-KB value", scans "cover 100 key-value pairs on average".
PAPER_KEY_BYTES = 16
PAPER_VALUE_BYTES = 1024
PAPER_SCAN_LENGTH = 100

#: ``WorkloadSpec`` fields that count operations, keys or bytes: each must
#: be a plain ``int`` — not a float, and not a ``bool``.
_INT_FIELDS = (
    "num_operations",
    "key_space",
    "key_bytes",
    "value_bytes",
    "scan_length",
    "preload_keys",
)

DIST_UNIFORM = "uniform"
DIST_ZIPF = "zipf"
_KNOWN_DISTRIBUTIONS = (DIST_UNIFORM, DIST_ZIPF)


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully specified benchmark workload.

    The count and size fields are plain ``int``s: a float or a ``bool``
    there is a :class:`~repro.errors.WorkloadError` at construction.  The
    seed may be any integer (a numpy one too), but not a ``bool``.

    Parameters
    ----------
    name:
        Label used in reports (e.g. ``"RWB"``).
    num_operations:
        Total request count.
    write_ratio:
        Fraction of operations that are random insertions; the remainder
        are queries of ``query_type``.
    query_type:
        ``"get"`` for point lookups or ``"scan"`` for range queries.
    key_space:
        Number of distinct keys addressed.
    key_bytes / value_bytes:
        Sizes of generated keys and values (keys are zero-padded decimal
        strings so lexicographic order matches numeric order).
    distribution:
        ``"uniform"`` or ``"zipf"``.
    zipf_constant:
        Skew parameter for the Zipf distribution (the paper sweeps 1–5 in
        Fig. 11; larger = more concentrated).
    scan_length:
        Average records per range query (paper: 100).
    preload_keys:
        Keys inserted before measurement starts so read-mostly workloads
        do not miss constantly (the paper loads the store first).
    seed:
        Master RNG seed; every derived stream is deterministic.
    """

    name: str
    num_operations: int
    write_ratio: float
    query_type: str = "get"
    key_space: int = 50_000
    key_bytes: int = PAPER_KEY_BYTES
    value_bytes: int = PAPER_VALUE_BYTES
    distribution: str = DIST_UNIFORM
    zipf_constant: float = 1.0
    scan_length: int = PAPER_SCAN_LENGTH
    preload_keys: int = 0
    seed: int = 42

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise WorkloadError(f"{name} must be an int, got {value!r}")
        if self.num_operations <= 0:
            raise WorkloadError("num_operations must be positive")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise WorkloadError("write_ratio must lie in [0, 1]")
        if self.query_type not in ("get", "scan"):
            raise WorkloadError(f"unknown query_type {self.query_type!r}")
        if self.key_space <= 0:
            raise WorkloadError("key_space must be positive")
        if self.key_bytes < 8:
            raise WorkloadError("key_bytes must be at least 8")
        if self.value_bytes < 0:
            raise WorkloadError("value_bytes must be non-negative")
        if self.distribution not in _KNOWN_DISTRIBUTIONS:
            raise WorkloadError(
                f"unknown distribution {self.distribution!r}; "
                f"known: {', '.join(_KNOWN_DISTRIBUTIONS)}"
            )
        if self.distribution == DIST_ZIPF and self.zipf_constant <= 0:
            raise WorkloadError("zipf_constant must be positive")
        if self.scan_length <= 0:
            raise WorkloadError("scan_length must be positive")
        if self.preload_keys < 0:
            raise WorkloadError("preload_keys must be non-negative")
        if type(self.seed) is bool or not isinstance(self.seed, Integral):
            raise WorkloadError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise WorkloadError(f"seed must be non-negative, got {self.seed!r}")

    @property
    def read_ratio(self) -> float:
        return 1.0 - self.write_ratio

    def with_overrides(self, **overrides: Any) -> "WorkloadSpec":
        return replace(self, **overrides)


def _mix(
    name: str,
    write_ratio: float,
    query_type: str = "get",
    **overrides: Any,
) -> WorkloadSpec:
    defaults: Dict[str, Any] = dict(
        num_operations=100_000,
        key_space=50_000,
    )
    if write_ratio < 1.0:
        # Read-bearing workloads start against a loaded store.
        defaults["preload_keys"] = defaults["key_space"]
    defaults.update(overrides)
    return WorkloadSpec(
        name=name, write_ratio=write_ratio, query_type=query_type, **defaults
    )


def wo(**overrides: Any) -> WorkloadSpec:
    """Write Only — 100% random insertions (Table III: WO)."""
    return _mix("WO", 1.0, **overrides)


def wh(**overrides: Any) -> WorkloadSpec:
    """Write Heavy — 70% writes, 30% point lookups (Table III: WH)."""
    return _mix("WH", 0.7, **overrides)


def rwb(**overrides: Any) -> WorkloadSpec:
    """Read/Write Balanced — 50/50 (Table III: RWB)."""
    return _mix("RWB", 0.5, **overrides)


def rh(**overrides: Any) -> WorkloadSpec:
    """Read Heavy — 30% writes, 70% point lookups (Table III: RH)."""
    return _mix("RH", 0.3, **overrides)


def ro(**overrides: Any) -> WorkloadSpec:
    """Read Only — 100% point lookups (Table III: RO)."""
    return _mix("RO", 0.0, **overrides)


def scn_wh(**overrides: Any) -> WorkloadSpec:
    """Scan Write Heavy — 70% writes, 30% range queries (Table III)."""
    return _mix("SCN-WH", 0.7, query_type="scan", **overrides)


def scn_rwb(**overrides: Any) -> WorkloadSpec:
    """Scan Read/Write Balanced — 50/50 (Table III)."""
    return _mix("SCN-RWB", 0.5, query_type="scan", **overrides)


def scn_rh(**overrides: Any) -> WorkloadSpec:
    """Scan Read Heavy — 30% writes, 70% range queries (Table III)."""
    return _mix("SCN-RH", 0.3, query_type="scan", **overrides)


#: All eight Table III workload constructors by name.
TABLE_III = {
    "WO": wo,
    "WH": wh,
    "RWB": rwb,
    "RH": rh,
    "RO": ro,
    "SCN-WH": scn_wh,
    "SCN-RWB": scn_rwb,
    "SCN-RH": scn_rh,
}
