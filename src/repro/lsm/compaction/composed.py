"""ComposedPolicy: runs a trigger × selector × movement × layout tuple.

One engine executes every point of the compaction design space.  The
composition is described by a :class:`~repro.lsm.compaction.spec.
PolicySpec`; this class builds the four primitives, validates that they
fit together (candidate shapes, layout requirements), and drives the
round loop:

* non-batching movements (merge-down, tiered stacking): one trigger
  decision → one selection → one executed round per ``compact_one``;
* zero-I/O-batching movements (LDC): free metadata actions (links,
  trivial moves) batch within a round until one action bears I/O, with
  the movement's *urgent* debt (due merges, frozen-space pressure)
  checked first (Algorithm 1's priority order).

Policies are built from the registry (``DB(policy="ldc")``,
``get_spec("ldc").derive(threshold=8).build()``); the internals of one
composition are reached on its primitives (``policy.movement.frozen``,
``policy.layout.level_runs``, ``policy.trigger.delay_factor``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import CompactionPolicy, guard_rounds
from .primitives import DataMovement
from ...errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from .spec import PolicySpec


class ComposedPolicy(CompactionPolicy):
    """A compaction policy assembled from a declarative spec."""

    def __init__(self, spec: "PolicySpec") -> None:
        super().__init__()
        self.spec = spec
        trigger, selector, movement, layout = spec.build_primitives()
        self.trigger = trigger
        self.selector = selector
        self.movement = movement
        self.layout = layout
        #: Reports, counters and trace events all carry the spec's name.
        self.name = spec.name
        #: Read by ``DB.__init__`` *before* ``attach`` to shape the tree.
        self.requires_sorted_levels = layout.sorted_levels
        self._check_composition()

    def _check_composition(self) -> None:
        if self.selector.CANDIDATE not in self.movement.ACCEPTS:
            raise ConfigError(
                f"policy {self.name!r}: movement "
                f"{self.movement.primitive_name!r} accepts "
                f"{self.movement.ACCEPTS} candidates, but selector "
                f"{self.selector.primitive_name!r} produces "
                f"{self.selector.CANDIDATE!r}"
            )
        for primitive in (self.trigger, self.selector, self.movement):
            required = primitive.REQUIRES_SORTED
            if required is not None and required != self.layout.sorted_levels:
                shape = "sorted (leveled)" if required else "tiered"
                raise ConfigError(
                    f"policy {self.name!r}: {primitive.describe()} requires "
                    f"a {shape} layout, got "
                    f"layout:{self.layout.primitive_name}"
                )
        needs_runs = (
            self.selector.CANDIDATE == "runs"
            or getattr(self.trigger, "leveled_from_level", "absent") != "absent"
        )
        if needs_runs and not hasattr(self.layout, "level_runs"):
            raise ConfigError(
                f"policy {self.name!r}: {self.selector.describe()} / "
                f"{self.trigger.describe()} need run bookkeeping, but "
                f"layout:{self.layout.primitive_name} tracks no runs"
            )

    # ------------------------------------------------------------------
    # Lifecycle / hooks (forwarded to the owning primitive)
    # ------------------------------------------------------------------
    def attach(self, db) -> None:  # type: ignore[override]
        super().attach(db)
        for primitive in (self.layout, self.trigger, self.selector,
                          self.movement):
            primitive.attach(self)
        # Idle-gate wiring (see MaintenanceEngine.on_operation): a decision
        # reads the tree plus movement state, so between structural
        # changes a "no work due" verdict can be cached.  A movement that
        # observes operations (LDC's adaptive controller) re-arms the
        # poll on every op; movements may opt out of the gate entirely
        # with IDLE_STABLE = False.
        movement = self.movement
        observes = getattr(movement, "observes_operations", None)
        if observes is None:
            observes = (
                type(movement).on_operation is not DataMovement.on_operation
            )
        self._movement_observes = observes
        self._idle_stable = movement.IDLE_STABLE

    def compact_one(self) -> bool:
        movement = self.movement
        if not movement.zero_io_batching:
            if movement.urgent_round():
                return True
            decision = self.trigger.fire()
            if decision is None:
                return False
            candidate = self.selector.select(decision.level, seed=decision.seed)
            movement.execute(decision.level, candidate)
            return True
        # Zero-I/O batching (LDC): free actions accumulate within the
        # round until one bears I/O or the tree is within its limits.
        did_work = False
        rounds = 0
        while True:
            rounds += 1
            guard_rounds(rounds)
            if movement.urgent_round():
                return True
            decision = self.trigger.fire()
            if decision is None:
                return did_work
            candidate = self.selector.select(decision.level, seed=decision.seed)
            if movement.execute(decision.level, candidate):
                return True
            # A link or trivial move happened: free, keep going.
            did_work = True

    def on_operation(self, is_write: bool) -> None:
        if self._movement_observes:
            self.movement.on_operation(is_write)
            self._maintenance_idle = False

    def note_seek_exhausted(self, table) -> None:
        self._maintenance_idle = False
        self.trigger.note_seek_exhausted(table)

    def extra_space_bytes(self) -> int:
        return self.movement.extra_space_bytes()

    def check_invariants(self) -> None:
        self.movement.check_invariants()

    @property
    def threshold(self):
        """The movement's live threshold knob (LDC's ``T_s``).

        Raises ``AttributeError`` for compositions without one, so the
        harness's ``getattr(policy, "threshold", None)`` reads ``None``.
        """
        value = getattr(self.movement, "threshold", None)
        if value is None:
            raise AttributeError(
                f"policy {self.name!r} has no threshold knob"
            )
        return value

    def describe(self) -> str:
        return self.spec.describe()
