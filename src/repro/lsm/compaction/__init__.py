"""Compaction policies for the LSM engine.

Policies are compositions of four orthogonal primitives — trigger,
candidate selector, data movement, level layout
(:mod:`~repro.lsm.compaction.primitives`) — described by a declarative
:class:`~repro.lsm.compaction.spec.PolicySpec` and executed by
:class:`~repro.lsm.compaction.base.CompactionPolicy`.  The central
registry in :mod:`~repro.lsm.compaction.spec` names the standard
catalogue (``udc``, ``ldc``, ``tiered``, ``delayed``); the LDC
primitives themselves live in :mod:`repro.core.primitives`.
docs/DESIGN_SPACE.md ties each registered composition to the part of
the paper it models.
"""

# MAX_ROUNDS_PER_PASS is not exported; the chunk-replay oracle under
# tests/ imports it from here, and is kept unedited until it retires.
from .base import CompactionPolicy, MAX_ROUNDS_PER_PASS, MaintenanceEngine
from .primitives import (
    CandidateSelector,
    DataMovement,
    known_primitives,
    register_primitive,
)
from .spec import PolicySpec, available_policies, get_spec, make_policy

__all__ = [
    "CompactionPolicy",
    "PolicySpec",
    "available_policies",
    "get_spec",
    "make_policy",
    "CandidateSelector",
    "DataMovement",
    "register_primitive",
    "known_primitives",
    "MaintenanceEngine",
]
