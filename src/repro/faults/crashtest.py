"""Crash-point enumeration: replay a workload, crashing at every I/O.

The harness behind ``repro crashtest``.  One workload, three passes:

1. **Reference run** — execute the workload on a fault-free store whose
   device carries an empty :class:`~repro.faults.plan.FaultPlan`, purely
   to count the charged I/Os (and to confirm the workload exercises
   flushes and, under LDC, links and merges).
2. **Crash enumeration** — for every I/O index (or every ``stride``-th
   one), rebuild the store from scratch, arm a one-shot crash at that
   index, run the workload until the crash fires, recover, and check the
   durability/atomicity oracle.
3. **Oracle** — after recovery:

   * every *acknowledged* write (operation returned before the crash) is
     readable with its acknowledged value;
   * the operation in flight at the crash is atomic: its keys show
     either entirely the old state or entirely the new one (for a
     ``write_batch``, all-or-nothing across the whole batch);
   * :meth:`~repro.lsm.db.DB.check_invariants` passes — levels sorted
     and disjoint, LDC frozen refcounts equal to live slice fan-in,
     block cache holding only live files;
   * after retrying the interrupted operation and finishing the
     workload, the store's full logical contents equal the model.

Torn WAL tails are exercised by cycling the crash's ``torn_fraction``
through 0, ½ and 1 across crash points, so every third write-crash
leaves a partial record on media for recovery to detect and drop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .plan import FaultPlan
from ..errors import ConfigError, CorruptionError, ReproError, SimulatedCrash
from ..lsm.compaction.base import CompactionPolicy
from ..lsm.compaction.spec import PolicySpec, get_spec, make_policy, not_a_policy
from ..lsm.config import LSMConfig
from ..lsm.db import DB, WriteBatch
from ..ssd.flash import DeviceConfig, FlashSpec
from ..ssd.profile import ENTERPRISE_PCIE

#: A workload operation: ("put", key, value) | ("delete", key) |
#: ("get", key) | ("scan", start_key, count) |
#: ("batch", ((key, value-or-None), ...)).
Operation = Tuple

#: torn_fraction cycle applied across successive crash points.
TORN_CYCLE = (0.0, 0.5, 1.0)

#: Deliberately tiny FTL geometry for flash-on crash testing: small pages
#: and blocks over a capacity a few times the crashtest store's footprint,
#: so the GC relocates pages within a few-thousand-op workload and crash
#: points land *inside* relocations (GC re-enters the device's read/write,
#: so its I/O counts toward the crash index like any other charged I/O).
#: Crash-before-install ordering must then leave the mapping recoverable —
#: ``DB.check_invariants`` runs the FTL's own invariant sweep after every
#: recovery.
CRASHTEST_FLASH_SPEC = FlashSpec(
    page_bytes=512,
    pages_per_block=16,
    logical_bytes=48 * 1024,
    over_provisioning=0.07,
    gc_policy="greedy",
)


def default_config() -> LSMConfig:
    """Small geometry so a few-thousand-op workload flushes and compacts."""
    return LSMConfig(
        memtable_bytes=4096,
        sstable_target_bytes=4096,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=8192,
        max_levels=6,
        bloom_bits_per_key=10,
    )


def build_operations(
    num_ops: int,
    num_keys: int,
    seed: int = 0,
    value_bytes: int = 32,
) -> List[Operation]:
    """A deterministic mixed workload: puts, deletes, batches, gets, scans.

    Write-heavy (~70% puts) so the store flushes and compacts; batches
    and deletes appear often enough that every crash-point class (torn
    batch, tombstone replay) is exercised.
    """
    rng = random.Random(seed)
    ops: List[Operation] = []
    for index in range(num_ops):
        key = _key(rng.randrange(num_keys))
        roll = rng.random()
        if roll < 0.70:
            ops.append(("put", key, _value(index, value_bytes)))
        elif roll < 0.80:
            ops.append(("delete", key))
        elif roll < 0.85:
            entries = []
            for offset in range(rng.randrange(2, 6)):
                entry_key = _key(rng.randrange(num_keys))
                if rng.random() < 0.2:
                    entries.append((entry_key, None))
                else:
                    entries.append((entry_key, _value(index * 10 + offset, value_bytes)))
            ops.append(("batch", tuple(entries)))
        elif roll < 0.95:
            ops.append(("get", key))
        else:
            ops.append(("scan", key, rng.randrange(1, 8)))
    return ops


def _key(index: int) -> bytes:
    return str(index).zfill(12).encode()


def _value(stamp: int, value_bytes: int) -> bytes:
    body = f"v{stamp}-".encode()
    return (body * (value_bytes // len(body) + 1))[:value_bytes]


# ----------------------------------------------------------------------
# Model application
# ----------------------------------------------------------------------
def _op_effect(op: Operation) -> Dict[bytes, Optional[bytes]]:
    """Net key effects of a write op (empty for reads); None = deleted."""
    kind = op[0]
    if kind == "put":
        return {op[1]: op[2]}
    if kind == "delete":
        return {op[1]: None}
    if kind == "batch":
        effect: Dict[bytes, Optional[bytes]] = {}
        for key, value in op[1]:
            effect[key] = value
        return effect
    return {}


def _apply_to_model(model: Dict[bytes, bytes], op: Operation) -> None:
    for key, value in _op_effect(op).items():
        if value is None:
            model.pop(key, None)
        else:
            model[key] = value


def _execute(store: DB, op: Operation):
    kind = op[0]
    if kind == "put":
        store.put(op[1], op[2])
    elif kind == "delete":
        store.delete(op[1])
    elif kind == "batch":
        _execute_batch(store, op[1])
    elif kind == "get":
        return store.get(op[1])
    elif kind == "scan":
        return store.scan(op[1], op[2])
    else:  # pragma: no cover - workload generator bug
        raise ReproError(f"unknown operation kind {kind!r}")
    return None


def _execute_batch(store: DB, entries) -> None:
    batch = WriteBatch()
    for key, value in entries:
        if value is None:
            batch.delete(key)
        else:
            batch.put(key, value)
    store.write_batch(batch)


# ----------------------------------------------------------------------
# Store construction
# ----------------------------------------------------------------------
def _require_positive(**counts: int) -> None:
    """Raise :class:`~repro.errors.ConfigError` for a count below 1: a
    sweep over no operations, keys or crash points checks nothing."""
    for name, value in counts.items():
        if value < 1:
            raise ConfigError(f"{name} must be positive, got {value!r}")


def _store_policy(policy: object) -> object:
    """``policy`` as every store of a sweep may receive it.

    A sweep builds many stores (the reference run, one per crash point,
    the corruption probe), and a policy is stateful: each store builds
    its own from a registry name or a
    :class:`~repro.lsm.compaction.spec.PolicySpec`, so a built instance
    is a :class:`~repro.errors.ConfigError`.  An unknown name raises
    :class:`~repro.errors.UnknownPolicyError` before any store is built.
    """
    if isinstance(policy, str):
        get_spec(policy)
    elif isinstance(policy, CompactionPolicy):
        raise ConfigError(
            "a policy instance cannot be shared by the crash-point stores; "
            "pass a name or a PolicySpec"
        )
    elif not isinstance(policy, (PolicySpec, type(None))):
        raise ConfigError(not_a_policy(policy))
    return policy


def _build_store(
    policy: object,
    config: LSMConfig,
    plan: Optional[FaultPlan],
    flash: Optional[FlashSpec] = None,
) -> DB:
    profile = (
        DeviceConfig(flash=flash) if flash is not None else ENTERPRISE_PCIE
    )
    return DB(config=config, policy=policy, profile=profile, fault_plan=plan)


def _logical(store: DB) -> Dict[bytes, bytes]:
    return dict(store.logical_items())


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class ReferenceRun:
    """Fault-free execution statistics used to enumerate crash points."""

    ios: int
    flushes: int
    links: int
    merges: int
    final_items: int


@dataclass
class CrashPointResult:
    """Outcome of one crash-recover-verify cycle."""

    io_index: int
    torn_fraction: float
    fired: bool
    crashed_at_op: Optional[int] = None
    crash_category: Optional[str] = None
    recovered_records: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class CrashTestReport:
    """Aggregate verdict of a crash-point enumeration."""

    policy: str
    stride: int
    reference: ReferenceRun
    results: List[CrashPointResult]

    @property
    def points_run(self) -> int:
        return len(self.results)

    @property
    def points_fired(self) -> int:
        return sum(1 for result in self.results if result.fired)

    @property
    def failures(self) -> List[CrashPointResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"crashtest policy={self.policy} stride={self.stride}",
            f"reference: {self.reference.ios} I/Os, "
            f"{self.reference.flushes} flushes, {self.reference.links} links, "
            f"{self.reference.merges} merges, "
            f"{self.reference.final_items} live keys",
            f"crash points: {self.points_run} run, {self.points_fired} fired, "
            f"{len(self.failures)} failed",
        ]
        for failure in self.failures[:10]:
            lines.append(
                f"  FAIL io={failure.io_index} "
                f"({failure.crash_category}): {'; '.join(failure.errors[:3])}"
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


@dataclass
class CorruptionReport:
    """Outcome of a seeded read-corruption sweep."""

    policy: str
    scheduled: int
    delivered: int
    detected: int
    missed: int

    @property
    def ok(self) -> bool:
        return self.delivered > 0 and self.detected == self.delivered and self.missed == 0

    def summary(self) -> str:
        return (
            f"corruption policy={self.policy}: {self.scheduled} scheduled, "
            f"{self.delivered} delivered, {self.detected} detected, "
            f"{self.missed} missed -> {'PASS' if self.ok else 'FAIL'}"
        )


# ----------------------------------------------------------------------
# Reference run
# ----------------------------------------------------------------------
def run_reference(
    operations: Sequence[Operation],
    policy: object,
    config: Optional[LSMConfig] = None,
    flash: Optional[FlashSpec] = None,
) -> ReferenceRun:
    """Fault-free run counting the device's charged I/Os."""
    config = config if config is not None else default_config()
    store = _build_store(policy, config, FaultPlan(), flash)
    for op in operations:
        _execute(store, op)
    counter = store.registry.counter
    return ReferenceRun(
        ios=store.device.faults.io_count,
        flushes=counter("engine.flush_count"),
        links=counter("engine.link_count"),
        merges=counter("engine.merge_count"),
        final_items=len(_logical(store)),
    )


# ----------------------------------------------------------------------
# One crash point
# ----------------------------------------------------------------------
def run_crash_point(
    operations: Sequence[Operation],
    policy: object,
    io_index: int,
    *,
    config: Optional[LSMConfig] = None,
    torn_fraction: float = 0.0,
    flash: Optional[FlashSpec] = None,
) -> CrashPointResult:
    """Crash at one I/O index, recover, verify the oracle, finish the run."""
    config = config if config is not None else default_config()
    plan = FaultPlan().crash_at(io_index, torn_fraction=torn_fraction)
    store = _build_store(policy, config, plan, flash)
    result = CrashPointResult(
        io_index=io_index, torn_fraction=torn_fraction, fired=False
    )

    model: Dict[bytes, bytes] = {}
    pending: Optional[Operation] = None
    pending_index = 0
    for index, op in enumerate(operations):
        try:
            observed = _execute(store, op)
        except SimulatedCrash as crash:
            result.fired = True
            result.crashed_at_op = index
            result.crash_category = crash.category
            pending = op
            pending_index = index
            break
        if op[0] == "get" and observed != model.get(op[1]):
            result.errors.append(
                f"pre-crash get({op[1]!r}) = {observed!r}, model has "
                f"{model.get(op[1])!r}"
            )
            return result
        _apply_to_model(model, op)

    if not result.fired:
        # Crash index beyond the run's I/O count (stride overshoot or a
        # diverged schedule): still a useful full-run consistency check.
        _verify_final(store, model, result)
        return result

    try:
        result.recovered_records = store.crash_and_recover()
        store.check_invariants()
    except ReproError as exc:
        result.errors.append(f"recovery failed: {exc}")
        return result

    _verify_oracle(store, model, pending, result)
    if result.errors:
        return result

    # Resume: retry the interrupted operation (legal — it was never
    # acknowledged) and finish the workload, then require exact equality.
    for op in operations[pending_index:]:
        try:
            _execute(store, op)
        except ReproError as exc:
            result.errors.append(f"post-recovery {op[0]} failed: {exc}")
            return result
        _apply_to_model(model, op)
    _verify_final(store, model, result)
    return result


def _verify_oracle(
    store: DB,
    model: Dict[bytes, bytes],
    pending: Optional[Operation],
    result: CrashPointResult,
) -> None:
    """Durability + atomicity: acknowledged data intact, pending atomic
    (a batch shows all of its keys old or all of them new)."""
    observed = _logical(store)
    effect = _op_effect(pending) if pending is not None else {}
    states: List[str] = []
    for key in set(model) | set(observed) | set(effect):
        old = model.get(key)
        seen = observed.get(key)
        if key in effect:
            new = effect[key]
            if seen == old and seen == new:
                state = "both"
            elif seen == old:
                state = "old"
            elif seen == new:
                state = "new"
            else:
                result.errors.append(
                    f"key {key!r}: observed {seen!r}, neither acknowledged "
                    f"{old!r} nor in-flight {new!r}"
                )
                continue
            states.append(state)
        elif seen != old:
            result.errors.append(
                f"acknowledged key {key!r}: observed {seen!r} != {old!r}"
            )
    if "old" in states and "new" in states:
        result.errors.append(
            "torn batch: some keys show the old state, some the new"
        )


def _verify_final(
    store: DB,
    model: Dict[bytes, bytes],
    result: CrashPointResult,
) -> None:
    try:
        store.check_invariants()
    except ReproError as exc:
        result.errors.append(f"invariant violation: {exc}")
        return
    observed = _logical(store)
    if observed != model:
        missing = [k for k in model if k not in observed]
        extra = [k for k in observed if k not in model]
        wrong = [
            k for k in model if k in observed and observed[k] != model[k]
        ]
        result.errors.append(
            f"final state mismatch: {len(missing)} missing, {len(extra)} "
            f"extra, {len(wrong)} wrong values"
        )


# ----------------------------------------------------------------------
# Full enumeration
# ----------------------------------------------------------------------
def run_crashtest(
    policy: object,
    *,
    num_ops: int = 2000,
    num_keys: int = 200,
    value_bytes: int = 32,
    seed: int = 0,
    stride: int = 1,
    config: Optional[LSMConfig] = None,
    flash: Optional[FlashSpec] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CrashTestReport:
    """Enumerate crash points over one workload and verify each recovery.

    ``stride`` samples every Nth I/O index (1 = exhaustive).  ``policy``
    is a name or a spec, never a built instance.  ``flash`` mounts an FTL
    layer under every store (see
    :data:`CRASHTEST_FLASH_SPEC`), putting GC relocations inside the
    crash-point schedule.  ``progress`` (points_done, points_total) is
    called after each crash point — the CLI uses it for a live counter.
    """
    _require_positive(num_ops=num_ops, num_keys=num_keys, stride=stride)
    policy = _store_policy(policy)
    config = config if config is not None else default_config()
    operations = build_operations(num_ops, num_keys, seed, value_bytes)
    reference = run_reference(operations, policy, config, flash)

    points = range(1, reference.ios + 1, stride)
    results: List[CrashPointResult] = []
    for count, io_index in enumerate(points):
        results.append(
            run_crash_point(
                operations,
                policy,
                io_index,
                config=config,
                torn_fraction=TORN_CYCLE[count % len(TORN_CYCLE)],
                flash=flash,
            )
        )
        if progress is not None:
            progress(count + 1, len(points))
    return CrashTestReport(
        policy=make_policy(policy).name,
        stride=stride,
        reference=reference,
        results=results,
    )


# ----------------------------------------------------------------------
# Corruption sweep
# ----------------------------------------------------------------------
def run_corruption_test(
    policy: object,
    *,
    num_ops: int = 1500,
    num_keys: int = 150,
    value_bytes: int = 32,
    seed: int = 0,
    corruptions: int = 25,
    config: Optional[LSMConfig] = None,
) -> CorruptionReport:
    """Seed read corruptions across the workload; all must be detected.

    Corrupt-read indices are spread over the first 80% of the reference
    run's reads (an aborted operation shortens the schedule, so indices
    near the tail might never be reached — scheduling conservatively
    keeps ``delivered`` close to ``scheduled``).  The verdict requires
    every *delivered* corruption to raise
    :class:`~repro.errors.CorruptionError` and none to slip past a
    decode path (``faults.corruptions_missed`` must stay zero).
    """
    _require_positive(
        num_ops=num_ops, num_keys=num_keys, corruptions=corruptions
    )
    policy = _store_policy(policy)  # the probe and the swept store
    config = config if config is not None else default_config()
    operations = build_operations(num_ops, num_keys, seed, value_bytes)

    probe = _build_store(policy, config, FaultPlan())
    for op in operations:
        _execute(probe, op)
    total_reads = probe.device.faults.read_count
    if total_reads == 0:
        raise ConfigError("workload performed no reads; cannot seed corruption")

    usable = max(1, int(total_reads * 0.8))
    count = min(corruptions, usable)
    plan = FaultPlan()
    step = max(1, usable // count)
    for index in range(1, usable + 1, step):
        plan.corrupt_read(index)
    scheduled = plan.pending_corruptions

    store = DB(config=config, policy=policy, fault_plan=plan)
    detected = 0
    for op in operations:
        try:
            _execute(store, op)
        except CorruptionError:
            detected += 1
    delivered = int(store.registry.counter("faults.corrupted_blocks"))
    missed = int(store.registry.counter("faults.corruptions_missed"))
    return CorruptionReport(
        policy=store.policy.name,
        scheduled=scheduled,
        delivered=delivered,
        detected=detected,
        missed=missed,
    )
