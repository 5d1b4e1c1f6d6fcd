"""PolicySpec: declarative, picklable compaction-policy descriptions.

A spec names one primitive per design-space axis — trigger, candidate
selector, data movement, level layout — plus a flat parameter mapping
distributed to whichever primitives declare each key.  Specs are frozen
dataclasses: hashable and picklable (they cross ``ProcessPoolExecutor``
boundaries inside grid tasks).

The module also hosts the **central policy registry** — the single
source of truth for policy names.  ``DB(policy="ldc")``, the CLI's
``--policy`` flags, the experiment grid and the crash-test harness all
resolve names here, and an unknown name raises one
typed :class:`~repro.errors.UnknownPolicyError` carrying the valid-name
list.

Standard catalogue (registered at import):

===================  ====================================================
``udc``              LevelDB leveled (fanout trigger, one file, merge
                     down) — the paper's baseline.
``ldc``              The paper's Lower-level Driven Compaction (link &
                     absorb with slice granularity).
``tiered``           Cassandra-style size tiering (run-count trigger,
                     whole-level runs, stacking merge).
``delayed``          dCompaction-style batching (delayed trigger, whole
                     level, merge down).
===================  ====================================================
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from .base import CompactionPolicy
from ...errors import ConfigError, UnknownPolicyError

_AXES = ("trigger", "selector", "movement", "layout")

#: Policy used when a DB is built without one (LevelDB's behaviour).
DEFAULT_POLICY = "udc"


def _primitive_class(kind: str, name: str) -> type:
    """Resolve one primitive, loading the optional LDC module on a miss.

    The core (LDC) primitives live in :mod:`repro.core.primitives`,
    which imports back into this package — so they register lazily, on
    the first lookup that needs them, keeping import order acyclic.
    """
    from . import primitives

    try:
        return primitives.primitive_class(kind, name)
    except KeyError:
        importlib.import_module("repro.core.primitives")
        try:
            return primitives.primitive_class(kind, name)
        except KeyError:
            known = ", ".join(primitives.known_primitives(kind))
            raise ConfigError(
                f"unknown {kind} primitive {name!r}; known: {known}"
            ) from None


@dataclass(frozen=True)
class PolicySpec:
    """One point in the compaction design space, by name.

    ``params`` is stored as a key-sorted tuple of ``(key, value)`` pairs
    (a dict is accepted and normalized) so specs hash, compare and
    pickle deterministically.
    """

    name: str
    trigger: str = "fanout"
    selector: str = "file"
    movement: str = "merge_down"
    layout: str = "leveled"
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("PolicySpec.name must be a non-empty string")
        for axis in _AXES:
            value = getattr(self, axis)
            if not value or not isinstance(value, str):
                raise ConfigError(
                    f"PolicySpec.{axis} must be a non-empty string"
                )
        params = self.params
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = tuple(params)
        normalized = tuple(
            sorted(((str(key), value) for key, value in items),
                   key=lambda pair: pair[0])
        )
        object.__setattr__(self, "params", normalized)

    # ------------------------------------------------------------------
    # Introspection / derivation
    # ------------------------------------------------------------------
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def derive(self, name: Optional[str] = None, **params: Any) -> "PolicySpec":
        """A new spec with updated params (and optionally a new name)."""
        merged = self.param_dict()
        merged.update(params)
        return replace(
            self, name=name if name is not None else self.name, params=merged
        )

    def describe(self) -> str:
        knobs = ", ".join(f"{key}={value!r}" for key, value in self.params)
        return (
            f"{self.name}: trigger={self.trigger} selector={self.selector} "
            f"movement={self.movement} layout={self.layout}"
            + (f" [{knobs}]" if knobs else "")
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build_primitives(self) -> tuple:
        """Instantiate (trigger, selector, movement, layout).

        Params are distributed by declaration: each primitive receives
        the subset of ``params`` its ``PARAMS`` tuple names.  A key no
        primitive accepts is a :class:`ConfigError` — specs cannot carry
        silently-dead knobs.
        """
        classes = [
            (axis, _primitive_class(axis, getattr(self, axis)))
            for axis in _AXES
        ]
        params = self.param_dict()
        accepted: set = set()
        built = []
        for axis, cls in classes:
            kwargs = {
                key: params[key] for key in cls.PARAMS if key in params
            }
            accepted.update(cls.PARAMS)
            built.append(cls(**kwargs))
        unknown = set(params) - accepted
        if unknown:
            raise ConfigError(
                f"policy {self.name!r}: params {sorted(unknown)} are "
                f"accepted by none of its primitives "
                f"({', '.join(f'{axis}:{cls.primitive_name}' for axis, cls in classes)})"
            )
        return tuple(built)

    def build(self):
        """Instantiate a runnable policy for this spec."""
        return CompactionPolicy(self)


# ----------------------------------------------------------------------
# The central policy registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Register ``spec`` under its name; returns the spec for chaining."""
    if spec.name in _REGISTRY:
        raise ConfigError(f"policy {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def available_policies() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_spec(name: str) -> PolicySpec:
    """Look a policy name up; unknown names raise UnknownPolicyError."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPolicyError(name, available_policies()) from None


def make_policy(policy: Any = None):
    """Coerce any accepted policy designator into a policy instance.

    ``None`` builds the default (``udc``), a string resolves through the
    registry, a :class:`PolicySpec` builds directly, and a
    :class:`~repro.lsm.compaction.base.CompactionPolicy` passes through
    (``DB(policy=get_spec("ldc").derive(threshold=8).build())``); any
    other value is a :class:`ConfigError`.
    """
    if policy is None:
        return get_spec(DEFAULT_POLICY).build()
    if isinstance(policy, str):
        return get_spec(policy).build()
    if isinstance(policy, PolicySpec):
        return policy.build()
    if isinstance(policy, CompactionPolicy):
        return policy
    raise ConfigError(not_a_policy(policy))


def not_a_policy(policy: Any) -> str:
    """The message for a value that designates no policy."""
    return (
        f"policy must be None, a registered name, a PolicySpec or a "
        f"CompactionPolicy, got {policy!r}"
    )


# ----------------------------------------------------------------------
# Standard catalogue
# ----------------------------------------------------------------------
#: The paper's baseline: LevelDB leveled compaction.
register_policy(PolicySpec(
    name="udc",
    trigger="fanout", selector="file", movement="merge_down",
    layout="leveled",
))

#: The paper's contribution: lower-level driven link & absorb.
register_policy(PolicySpec(
    name="ldc",
    trigger="fanout", selector="ldc_unit", movement="ldc_link_merge",
    layout="leveled",
))

#: Size-tiered lazy baseline (related-work ablations).
register_policy(PolicySpec(
    name="tiered",
    trigger="tier_count", selector="runs", movement="tiered_merge",
    layout="tiered",
))

#: dCompaction-style delayed batching.
register_policy(PolicySpec(
    name="delayed",
    trigger="delayed", selector="level", movement="merge_down",
    layout="leveled",
    params={"delay_factor": 3.0, "batched": True},
))
