"""Map profiled functions to layers and boundary spans.

A *layer* is one of this repo's modules (or a small group of them); the map
below sends every source file under ``src/repro`` to exactly one layer.
Functions from outside the package — builtins, the standard library, numpy —
are *foreign*: their self time and call counts are charged to the layer of
whichever repro function called them, using cProfile's caller edges, so that
a layer's share includes the C code it drives.  A foreign function reached
only through other foreign functions is shared out by call count along the
chain (counts repeat exactly; times do not).

A *span* is the inclusive time of a set of public boundary functions,
counted only where the set is entered from outside itself, so nested calls
between members are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable

#: Source path under ``repro/`` -> layer; the first matching prefix wins.
#: lsm.keys/record/stats/config fold into lsm.db; lsm.cache into lsm.sstable;
#: the legacy skip list into lsm.memtable.  shard, faults, model, extras, cli
#: and errors have no workload here and land in ``other``.
LAYER_PREFIXES = (
    ("workload/", "workload"),
    ("harness/", "harness"),
    ("lsm/memtable.py", "lsm.memtable"),
    ("lsm/skiplist.py", "lsm.memtable"),
    ("lsm/wal.py", "lsm.wal"),
    ("lsm/builder.py", "lsm.builder"),
    ("lsm/bloom.py", "lsm.bloom"),
    ("lsm/sstable.py", "lsm.sstable"),
    ("lsm/cache.py", "lsm.sstable"),
    ("lsm/version.py", "lsm.version"),
    ("lsm/iterators.py", "lsm.iterators"),
    ("lsm/compaction/", "lsm.compaction"),
    ("lsm/", "lsm.db"),
    ("core/", "core"),
    ("ssd/flash.py", "ssd.flash"),
    ("ssd/", "ssd"),
    ("sched/", "sched"),
    ("serve/", "serve"),
    ("obs/", "obs"),
)
OTHER = "other"
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (OTHER,)

#: Span name -> (source path under ``repro/``, function name) boundary set.
#: Compaction rounds are entered through ``compact_one_tracked`` on both the
#: inline and the scheduled path (``maybe_compact`` only drains), so that is
#: the ``span.compact`` boundary.  Fused fast paths that bypass a boundary
#: function (e.g. the inlined user block read) are by design not in its span.
SPANS = {
    "span.put": (("lsm/db.py", "put"),),
    "span.get": (("lsm/db.py", "get"),),
    "span.scan": (("lsm/db.py", "scan"),),
    "span.flush": (("lsm/db.py", "flush"),),
    "span.compact": (("lsm/compaction/base.py", "compact_one_tracked"),),
    "span.merge_windows": (("lsm/compaction/columnar.py", "merge_windows"),),
    "span.merge_records": (("lsm/iterators.py", "merge_records"),),
    "span.device_io": (
        ("ssd/device.py", "read"),
        ("ssd/device.py", "write"),
        ("ssd/device.py", "read_runs"),
    ),
    "span.ftl": (("ssd/flash.py", "host_write"), ("ssd/flash.py", "trim")),
}

_PACKAGE_MARK = "/repro/"


@dataclass
class Node:
    """One profiled function: totals, and the calls it made (by callee)."""

    calls: int = 0
    self_time: float = 0.0
    total_time: float = 0.0
    #: callee code -> [calls, callee self time, callee inclusive time]
    callees: Dict[object, list] = field(default_factory=dict)


def merge(profilers: Iterable) -> Dict[object, Node]:
    """Pool finished cProfile profilers into one call graph.

    Functions are keyed by code object (builtins by their description), not
    by pstats' ``(file, line, name)`` triple: generated functions such as
    two dataclasses' ``__init__`` share one triple, and pstats keeps only
    whichever it saw last, so its call counts do not repeat exactly.
    """
    nodes: Dict[object, Node] = {}
    for profiler in profilers:
        for entry in profiler.getstats():
            node = nodes.setdefault(entry.code, Node())
            node.calls += entry.callcount
            node.self_time += entry.inlinetime
            node.total_time += entry.totaltime
            for sub in entry.calls or ():
                edge = node.callees.setdefault(sub.code, [0, 0.0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.inlinetime
                edge[2] += sub.totaltime
    return nodes


def _package_path(code) -> str:
    """Path below ``repro/`` for package sources, else ``""`` (foreign)."""
    if isinstance(code, str):  # builtin or C method
        return ""
    normalised = code.co_filename.replace("\\", "/")
    at = normalised.rfind(_PACKAGE_MARK)
    return normalised[at + len(_PACKAGE_MARK):] if at >= 0 else ""


def layer_of(code) -> str:
    """The layer owning ``code``, or ``""`` when the function is foreign."""
    path = _package_path(code)
    if not path:
        return ""
    for prefix, layer in LAYER_PREFIXES:
        if path.startswith(prefix):
            return layer
    return OTHER


def analyse(nodes: Dict[object, Node], operations: int) -> Dict[str, float]:
    """Per-layer and per-span rows from one pooled call graph.

    Returns ``<layer>.self_share`` / ``<layer>.calls_per_op`` for every
    layer, ``<span>.incl_share`` / ``<span>.count`` for every span, and
    ``py_calls_per_op`` (which the layers' ``calls_per_op`` sum to).  Call
    counts are shared out in exact fractions, so they repeat exactly.
    """
    callers: Dict[object, Dict[object, list]] = defaultdict(dict)
    for caller, node in nodes.items():
        for callee, edge in node.callees.items():
            callers[callee][caller] = edge
    total_time = sum(node.self_time for node in nodes.values())
    total_calls = sum(node.calls for node in nodes.values())
    mix_memo: Dict[object, Dict[str, Fraction]] = {}

    def call_mix(code) -> Dict[str, Fraction]:
        """Share of a foreign function's calls owned by each layer."""
        known = mix_memo.get(code)
        if known is not None:
            return known
        mix_memo[code] = {OTHER: Fraction(1)}  # cycle guard, no-caller answer
        weights: Dict[str, Fraction] = defaultdict(Fraction)
        for caller, edge in callers[code].items():
            for layer, share in owners(caller).items():
                weights[layer] += edge[0] * share
        total = sum(weights.values())
        if total > 0:
            mix_memo[code] = {k: v / total for k, v in weights.items()}
        return mix_memo[code]

    def owners(code) -> Dict[str, Fraction]:
        layer = layer_of(code)
        return {layer: Fraction(1)} if layer else call_mix(code)

    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, Fraction] = defaultdict(Fraction)
    for code, node in nodes.items():
        layer = layer_of(code)
        if layer:
            self_time[layer] += node.self_time
            calls[layer] += node.calls
        elif not callers[code]:
            self_time[OTHER] += node.self_time
            calls[OTHER] += node.calls
        else:
            for caller, (edge_calls, edge_self, _total) in callers[code].items():
                for owner, share in owners(caller).items():
                    self_time[owner] += edge_self * float(share)
                    calls[owner] += edge_calls * share

    rows: Dict[str, float] = {"py_calls_per_op": total_calls / operations}
    for layer in LAYERS:
        rows[f"{layer}.self_share"] = ratio(self_time[layer], total_time)
        rows[f"{layer}.calls_per_op"] = float(calls[layer] / operations)
    for span, boundary in SPANS.items():
        wanted = set(boundary)
        members = {code for code in nodes
                   if not isinstance(code, str)
                   and (_package_path(code), code.co_name) in wanted}
        inclusive = 0.0
        count = 0
        for code in members:
            if not callers[code]:  # profiled root: no recorded caller
                inclusive += nodes[code].total_time
                count += nodes[code].calls
            for caller, (edge_calls, _self, edge_total) in callers[code].items():
                if caller not in members:  # entered from outside the boundary
                    inclusive += edge_total
                    count += edge_calls
        rows[f"{span}.incl_share"] = ratio(inclusive, total_time)
        rows[f"{span}.count"] = count
    return rows


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def calls_to(nodes: Dict[object, Node], path: str, name: str) -> int:
    """Total calls of one package function (e.g. Bloom probes)."""
    return sum(
        node.calls for code, node in nodes.items()
        if not isinstance(code, str)
        and code.co_name == name and _package_path(code) == path
    )
