"""Orthogonal compaction primitives: trigger × selector × movement × layout.

Sarkar et al. ("Constructing and Analyzing the LSM Compaction Design
Space", PAPERS.md) observe that every LSM compaction policy decomposes
into four orthogonal decisions:

* **Trigger** — *when* to compact (level fanout breach, tier/run count,
  a delayed batching threshold);
* **CandidateSelector** — *what granularity* participates (one file, a
  whole level, all runs of a tier, LDC's lower-level-driven slice unit);
* **DataMovement** — *how* data moves (full merge down, tiered run
  stacking, LDC link/absorb, trivial moves);
* **Layout** — *what shape* levels take (sorted-and-disjoint leveled
  runs vs overlapping tiered runs).

Each axis has its own registry; :class:`~repro.lsm.compaction.spec.
PolicySpec` names one primitive per axis (plus parameters) and
:class:`~repro.lsm.compaction.base.CompactionPolicy` runs the
composition.  The paper's four policies (UDC / LDC / tiered / delayed)
are compositions of the primitives in this module plus the LDC movement
in :mod:`repro.core.primitives` — pinned by the golden, differential and
fingerprint suites — and another point in the design space is a new
composition (``get_spec(...).derive(...)`` or a new ``PolicySpec``), not
a new class.
"""

from __future__ import annotations

from typing import ClassVar, Dict, List, Optional, Tuple, Type

from ..keys import key_successor
from ..sstable import SSTable
from ...errors import ConfigError
from ...obs.events import EV_TRIVIAL_MOVE

# ----------------------------------------------------------------------
# Per-axis registries
# ----------------------------------------------------------------------
TRIGGERS: Dict[str, Type["Trigger"]] = {}
SELECTORS: Dict[str, Type["CandidateSelector"]] = {}
MOVEMENTS: Dict[str, Type["DataMovement"]] = {}
LAYOUTS: Dict[str, Type["Layout"]] = {}

_KIND_REGISTRIES: Dict[str, Dict[str, type]] = {
    "trigger": TRIGGERS,
    "selector": SELECTORS,
    "movement": MOVEMENTS,
    "layout": LAYOUTS,
}


def register_primitive(kind: str, name: str):
    """Class decorator registering a primitive under ``kind``/``name``."""
    registry = _KIND_REGISTRIES[kind]

    def decorator(cls: type) -> type:
        if name in registry:
            raise ConfigError(f"{kind} primitive {name!r} already registered")
        cls.kind = kind
        cls.primitive_name = name
        registry[name] = cls
        return cls

    return decorator


def primitive_class(kind: str, name: str) -> type:
    """Resolve one primitive class; raises ``KeyError`` on a miss."""
    return _KIND_REGISTRIES[kind][name]


def known_primitives(kind: str) -> Tuple[str, ...]:
    return tuple(sorted(_KIND_REGISTRIES[kind]))


# ----------------------------------------------------------------------
# Axis base classes
# ----------------------------------------------------------------------
class Primitive:
    """Base for all four axes: attached to its owning policy."""

    #: Parameter names this primitive accepts from ``PolicySpec.params``.
    PARAMS: ClassVar[Tuple[str, ...]] = ()
    #: Layout requirement: True = needs sorted levels, False = needs
    #: overlapping (tiered) levels, None = works with either.
    REQUIRES_SORTED: ClassVar[Optional[bool]] = None
    kind: ClassVar[str] = "primitive"
    primitive_name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self.policy = None
        #: The owning DB, bound at :meth:`attach`.  A plain attribute, not
        #: a property: primitives consult it on every maintenance pass
        #: (once per user operation), so the resolution through
        #: ``policy._db`` is paid once at attach time.
        self.db = None

    def attach(self, policy) -> None:
        """Bind to the owning :class:`CompactionPolicy` (after DB attach)."""
        self.policy = policy
        self.db = policy._db

    def describe(self) -> str:
        return f"{self.kind}:{self.primitive_name}"


class Trigger(Primitive):
    """Decides *when* (and against which level) to compact."""

    kind = "trigger"

    def fire(self) -> Optional[int]:
        """Return the level to compact now, or None if the tree is fine
        (test with ``is None``: level 0 is falsy)."""
        raise NotImplementedError


class CandidateSelector(Primitive):
    """Decides *what granularity* of data participates in a round."""

    kind = "selector"
    #: What the selector hands to the movement: "files" (a flat SSTable
    #: list), "runs" (a list of runs), or "ldc_unit" (a tagged table).
    CANDIDATE: ClassVar[str] = "files"

    def select(self, level: int):
        raise NotImplementedError


class DataMovement(Primitive):
    """Decides *how* the selected data physically moves."""

    kind = "movement"
    #: Candidate shapes this movement can execute (must include the
    #: selector's ``CANDIDATE``).
    ACCEPTS: ClassVar[Tuple[str, ...]] = ("files",)
    #: True for movements with zero-I/O metadata actions (LDC links):
    #: the policy's round loop batches free actions until one bears I/O.
    zero_io_batching: ClassVar[bool] = False
    #: True for movements whose decisions shift with the operation mix
    #: (LDC's adaptive controller): every operation reaches
    #: :meth:`on_operation` and re-arms the engine's maintenance poll.
    observes_operations = False
    #: The live SliceLink threshold ``T_s`` (None: the movement has none).
    threshold: Optional[int] = None

    def urgent_round(self) -> bool:
        """Movement-internal debt that preempts the trigger (LDC merges)."""
        return False

    def execute(self, level: int, candidate) -> bool:
        """Execute one round; True when the round performed I/O."""
        raise NotImplementedError

    def on_operation(self, is_write: bool) -> None:
        """Observe one user operation (adaptive controllers)."""

    def extra_space_bytes(self) -> int:
        """Movement-held space outside the tree (LDC's frozen region)."""
        return 0

    def check_invariants(self) -> None:
        """Verify movement-internal bookkeeping; raise on violation."""


class Layout(Primitive):
    """Decides the shape of levels: sorted-disjoint or overlapping runs."""

    kind = "layout"
    sorted_levels: ClassVar[bool] = True


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def expand_level0(version, seed: SSTable) -> List[SSTable]:
    """Grow a Level-0 input set to all transitively overlapping files.

    Level-0 files overlap each other, so a compaction must take every
    file whose range touches the seed's (transitively), or newer
    versions of a key could be left behind while older ones descend.
    """
    chosen = {seed.file_id: seed}
    lo, hi = seed.min_key, key_successor(seed.max_key)
    changed = True
    while changed:
        changed = False
        for table in version.overlapping(0, lo, hi):
            if table.file_id not in chosen:
                chosen[table.file_id] = table
                lo = min(lo, table.min_key)
                hi = max(hi, key_successor(table.max_key))
                changed = True
    return sorted(chosen.values(), key=lambda table: table.file_id)


# ----------------------------------------------------------------------
# Triggers
# ----------------------------------------------------------------------
@register_primitive("trigger", "fanout")
class FanoutTrigger(Trigger):
    """LevelDB's size trigger: the most over-capacity level compacts.

    Covers the L0 file-count trigger too (``pick_compaction_level``
    scores Level 0 by file count).
    """

    def fire(self) -> Optional[int]:
        return self.db.version.pick_compaction_level()


@register_primitive("trigger", "delayed")
class DelayedTrigger(Trigger):
    """dCompaction's delayed trigger: a level must overflow its capacity
    by ``delay_factor`` before it compacts (Level 0 keeps the ordinary
    trigger — letting L0 grow by the delay factor would collide with the
    slowdown/stop stalls and measure the stall model rather than the
    compaction schedule)."""

    PARAMS = ("delay_factor",)

    def __init__(self, delay_factor: float = 3.0) -> None:
        super().__init__()
        if delay_factor < 1.0:
            raise ConfigError("delay_factor must be at least 1")
        self.delay_factor = delay_factor

    def fire(self) -> Optional[int]:
        version = self.db.version
        if len(version.files(0)) >= self.db.config.l0_compaction_trigger:
            return 0
        best_level: Optional[int] = None
        best_score = self.delay_factor
        for level in range(1, version.num_levels - 1):
            score = version.level_score(level)
            if score >= best_score:
                best_score = score
                best_level = level
        return best_level


@register_primitive("trigger", "tier_count")
class TierCountTrigger(Trigger):
    """Tiered trigger: a level compacts when it holds ``fan_out`` runs.

    Level 0 uses the LevelDB file-count trigger so flush pressure behaves
    the same across policies.
    """

    REQUIRES_SORTED = False

    def fire(self) -> Optional[int]:
        version = self.db.version
        if len(version.files(0)) >= self.db.config.l0_compaction_trigger:
            return 0
        fan_out = self.db.config.fan_out
        for level in range(1, version.num_levels - 1):
            if len(self.policy.layout.level_runs(level)) >= fan_out:
                return level
        return None


# ----------------------------------------------------------------------
# Candidate selectors
# ----------------------------------------------------------------------
@register_primitive("selector", "file")
class RoundRobinFileSelector(CandidateSelector):
    """One file, round-robin over the key space (LevelDB's pick).

    At Level 0 the single file grows to its transitive overlap closure —
    the minimum sound L0 input set.
    """

    CANDIDATE = "files"

    def select(self, level: int):
        version = self.db.version
        seed = version.pick_file_round_robin(level)
        if level == 0:
            return expand_level0(version, seed)
        return [seed]


@register_primitive("selector", "level")
class WholeLevelSelector(CandidateSelector):
    """Every file of the triggered level at once (dCompaction's batch)."""

    CANDIDATE = "files"

    def select(self, level: int):
        return list(self.db.version.files(level))


@register_primitive("selector", "runs")
class RunSelector(CandidateSelector):
    """All sorted runs of the triggered level (tiered granularity)."""

    CANDIDATE = "runs"
    REQUIRES_SORTED = False

    def select(self, level: int):
        return self.policy.layout.level_runs(level)


# ----------------------------------------------------------------------
# Data movements
# ----------------------------------------------------------------------
@register_primitive("movement", "merge_down")
class MergeDownMovement(DataMovement):
    """Classic merge-down: inputs merge with every overlapping file one
    level deeper; a lone input with no overlaps is trivially re-parented.

    ``batched`` exists because UDC and dCompaction account the *same*
    physical movement differently: UDC emits trivial-move trace events and
    counts ``compactions`` / ``input_files``, the delayed batcher counts
    ``batched_rounds`` / ``batched_input_files`` and emits no event — the
    goldens pin those differences.
    """

    PARAMS = ("batched",)
    ACCEPTS = ("files",)
    REQUIRES_SORTED = True

    def __init__(self, batched: bool = False) -> None:
        super().__init__()
        self.batched = bool(batched)
        self.round_counter = "batched_rounds" if batched else "compactions"
        self.input_counter = "batched_input_files" if batched else "input_files"

    def execute(self, level: int, inputs: List[SSTable]) -> bool:
        policy = self.policy
        db = self.db
        version = db.version
        lo = min(table.min_key for table in inputs)
        hi = key_successor(max(table.max_key for table in inputs))
        overlaps = version.overlapping(level + 1, lo, hi)

        version.advance_compact_pointer(level, inputs[-1])

        if (
            not overlaps
            and len(inputs) == 1
            and self._safe_to_move(level, inputs[0])
        ):
            # Trivial move: no data to merge with, so just re-parent the
            # file.  No I/O is performed.
            seed = inputs[0]
            version.remove_file(level, seed)
            version.add_file(level + 1, seed)
            db.registry.add("engine.trivial_moves")
            policy.bump("trivial_moves")
            if not self.batched:
                db.tracer.emit(
                    EV_TRIVIAL_MOVE, policy=policy.name, file_id=seed.file_id,
                    from_level=level, to_level=level + 1,
                )
            return False

        drop = policy.can_drop_tombstones(level + 1)
        outputs = policy.merge_tables([*inputs, *overlaps], drop_deletes=drop)
        for table in inputs:
            version.remove_file(level, table)
            db.note_file_dropped(table)
        for table in overlaps:
            version.remove_file(level + 1, table)
            db.note_file_dropped(table)
        for table in outputs:
            version.add_file(level + 1, table)
        db.registry.add("engine.compaction_count")
        policy.bump(self.round_counter)
        policy.bump(self.input_counter, len(inputs) + len(overlaps))
        return True

    def _safe_to_move(self, level: int, table: SSTable) -> bool:
        """A trivial move must not let newer data leapfrog older data.

        Within sorted levels files are disjoint, so moving is always
        safe; in Level 0 a file may only move if no sibling overlaps it
        (a lone whole-level L0 input has no siblings, so it passes).
        """
        if level != 0:
            return True
        siblings = self.db.version.overlapping(
            level, table.min_key, key_successor(table.max_key)
        )
        return len(siblings) == 1


@register_primitive("movement", "tiered_merge")
class TieredMergeMovement(DataMovement):
    """Tiered stacking: merge all runs of a level into one new run below."""

    ACCEPTS = ("runs",)
    REQUIRES_SORTED = False

    def execute(self, level: int, runs: List[List[SSTable]]) -> bool:
        policy = self.policy
        db = self.db
        version = db.version
        layout = policy.layout
        inputs = [table for run in runs for table in run]
        target = level + 1
        drop = policy.can_drop_tombstones(target) and not version.files(target)
        outputs = policy.merge_tables(inputs, drop_deletes=drop)
        for table in inputs:
            version.remove_file(level, table)
            db.note_file_dropped(table)
        if level != 0:
            layout.clear_runs(level)
        for table in outputs:
            version.add_file(target, table)
        if outputs:
            layout.add_run(target, list(outputs))
        db.registry.add("engine.compaction_count")
        policy.bump("level_merges")
        policy.bump("runs_merged", len(runs))
        return True


# ----------------------------------------------------------------------
# Layouts
# ----------------------------------------------------------------------
@register_primitive("layout", "leveled")
class LeveledLayout(Layout):
    """Sorted levels: each level is one run of disjoint files."""

    sorted_levels = True


@register_primitive("layout", "tiered")
class TieredLayout(Layout):
    """Overlapping levels holding stacked sorted runs.

    Run membership is policy (not version) state — it survives crash
    recovery with the policy instance.  Level 0 is synthesized from the
    version: each flushed file is its own run.
    """

    sorted_levels = False

    def __init__(self) -> None:
        super().__init__()
        self._runs: Dict[int, List[List[SSTable]]] = {}

    def level_runs(self, level: int) -> List[List[SSTable]]:
        if level == 0:
            return [[table] for table in self.db.version.files(0)]
        return self._runs.setdefault(level, [])

    def clear_runs(self, level: int) -> None:
        # Reassign (not ``.clear()``): callers hold the previous list.
        self._runs[level] = []

    def add_run(self, level: int, run: List[SSTable]) -> None:
        self._runs.setdefault(level, []).append(run)
