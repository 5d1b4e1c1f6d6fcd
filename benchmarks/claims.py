"""The paper's evaluation as data: ``CLAIMS`` maps a figure of
``repro.cli.FIGURES`` to its claims, each ``(claim, paper value,
measure(out), bound)``.  ``measure`` reads one number from what the
figure's ``run(ops, keys)`` returned; the claim holds when ``measured <op>
value`` for ``bound = "<op> <value>"``.  The paper value is the same
quantity in the paper's runs, its wording where it gives no number, or "-".
``tests/test_paper_claims_table.py`` keeps this table in step with the CLI's.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, NamedTuple

from repro.lsm.config import LSMConfig
from repro.model import (
    ldc_write_amplification,
    total_throughput,
    udc_write_amplification,
)


class Claim(NamedTuple):
    claim: str
    paper: str
    measure: Callable[[Any], float]
    bound: str


#: The comparisons a bound may use.
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
       "<=": operator.le, "==": operator.eq}


def holds(claim: Claim, measured: float) -> bool:
    op, value = claim.bound.split()
    return OPS[op](measured, float(value))


#: Figures that carry no claim, and why.
UNCLAIMED = {
    "fig01s": "its UDC > LDC spread comes from the one-thread engine starving its thread",
    "paper_scale": "host-time run with its own CI jobs",
}


def _labels(out) -> List[str]:
    """Row labels of a grid figure, in sweep order."""
    return list(dict.fromkeys(row.workload for row in out.rows))


def _ratio(out, label: str, field: str, num: str = "LDC", den: str = "UDC") -> float:
    """``num``'s ``field`` over ``den``'s on the ``label`` row."""
    return (getattr(out.result_for(label, num), field)
            / getattr(out.result_for(label, den), field))


def _gain(out, label: str) -> float:
    """LDC's throughput gain over UDC on the ``label`` row."""
    return _ratio(out, label, "throughput_ops_s") - 1


def _saving(out, label: str) -> float:
    """The share of UDC's compaction I/O that LDC does not do."""
    udc = out.result_for(label, "UDC").compaction_bytes_total
    return 1 - out.result_for(label, "LDC").compaction_bytes_total / max(1, udc)


def _by_knob(out, policy: str, field: str) -> Dict[int, float]:
    """``policy``'s ``field`` keyed by the swept value (``fanout=3`` -> 3)."""
    return {int(row.workload.split("=")[1]): getattr(row.result, field)
            for row in out.rows if row.policy == policy}


def _udc_amps(out) -> Dict[int, float]:
    return _by_knob(out, "UDC", "write_amplification")


def _arg(fn, series: Dict[int, float]) -> int:
    """The swept setting where ``fn`` (``min`` / ``max``) of the series is."""
    return fn(series, key=series.get)


def _at_ends(series: Dict[int, float]) -> float:
    """The value at the largest swept setting over the value at the smallest."""
    return series[max(series)] / series[min(series)]


def _spread(out, policy: str) -> float:
    """Max over min throughput across a sweep, minus one."""
    series = _by_knob(out, policy, "throughput_ops_s").values()
    return max(series) / min(series) - 1


def _mib_per_round(out, policy: str) -> float:
    result = out.result_for("RWB", policy)
    return result.compaction_bytes_total / max(1, result.compaction_count) / 2**20


def _max_us(out, policy: str) -> float:
    return out.result_for("RWB", policy).latencies.maximum()


def _frozen_over_cap(out) -> float:
    """The largest LDC frozen region over its cap: 60% of the store plus
    eight 64-KiB files of slack."""
    return max(
        ldc.extra_space_bytes / (0.60 * (ldc.live_bytes + ldc.extra_space_bytes) + 8 * 64 * 1024)
        for ldc in (out.result_for(label, "LDC") for label in _labels(out))
    )


def _space_overheads(out) -> List[float]:
    return [_ratio(out, label, "space_bytes") - 1 for label in _labels(out)]


def _model_wa_ratio(out) -> float:
    """Theorems 2.1 / 3.1's UDC / LDC write amp for the RWB store's size."""
    config = LSMConfig()
    total = max(out.result_for("RWB", "UDC").live_bytes, config.sstable_target_bytes)
    args = (config.fan_out, total, config.sstable_target_bytes)
    return udc_write_amplification(*args) / ldc_write_amplification(*args)


def _eq2_throughput(result) -> float:
    """Equation (2) over the run's measured write and read service rates."""
    def rate(recorder) -> float:
        return max(1, len(recorder)) / max(1e-9, sum(recorder.values) / 1e6)

    return total_throughput(0.5, rate(result.write_latencies), rate(result.read_latencies))


def _eq2_picks_winner(out) -> float:
    udc, ldc = out.result_for("RWB", "UDC"), out.result_for("RWB", "LDC")
    return float((_eq2_throughput(ldc) > _eq2_throughput(udc))
                 == (ldc.throughput_ops_s > udc.throughput_ops_s))


def _round_stat(result, stat: str) -> int:
    """``p99`` (index ``int(0.99 n) - 1`` of the sorted sizes), ``max`` or
    ``count`` of a run's compaction rounds."""
    rounds = sorted(result.round_bytes)
    if stat == "count" or not rounds:
        return len(rounds)
    if stat == "max":
        return rounds[-1]
    return rounds[min(len(rounds) - 1, max(0, int(0.99 * len(rounds)) - 1))]


def _round_ratio(out, stat: str, num: str = "LDC", den: str = "UDC") -> float:
    """``num``'s round ``stat`` over ``den``'s on the RWB row."""
    return (_round_stat(out.result_for("RWB", num), stat)
            / _round_stat(out.result_for("RWB", den), stat))


def _with_cache(out, policy: str, field: str) -> float:
    """``policy``'s ``field`` with the 256-KiB block cache over without one."""
    return (getattr(out.result_for("256KiB", policy), field)
            / getattr(out.result_for("disabled", policy), field))


def _valve_peak(out) -> float:
    """The largest sampled frozen region over the valve: the cap's share
    of the live bytes plus eight files of slack."""
    return max(
        sample.frozen_bytes / (out["cap"] * max(sum(sample.level_bytes), 1) + out["slack_bytes"])
        for sample in out["samples"]
    )


def _shrinks(out) -> float:
    series = [sample.frozen_bytes for sample in out["samples"]]
    return float(any(later < earlier for earlier, later in zip(series, series[1:])))


def _linked_over_eager(out, field: str) -> float:
    return out["linked"][field] / out["eager"][field]


def _total_wa(out, policy: str) -> float:
    """``policy``'s host x device write amplification in a device-WA sweep."""
    return next(result.total_write_amplification
                for task, result in out["points"] if task.policy_label == policy)


CLAIMS: Dict[str, List[Claim]] = {
    "fig01": [
        Claim("write-latency fluctuation, max/min bucket mean", "49.13",
              lambda out: out["fluctuation_ratio"], "> 5"),
        Claim("latency buckets", "-", lambda out: len(out["points"]), ">= 3"),
    ],
    "fig01_open_loop": [
        Claim("headline load above UDC's knee", "-",
              lambda out: float(out["headline"]["above_knee"]), "== 1"),
        Claim("UDC / LDC p99.9 at the headline load", "-",
              lambda out: out["headline"]["udc_p999_us"] / out["headline"]["ldc_p999_us"],
              "> 1"),
        Claim("UDC - LDC SLO violation rate at the headline load", "-",
              lambda out: out["headline"]["udc_slo_violation_rate"]
              - out["headline"]["ldc_slo_violation_rate"], "> 0"),
    ],
    "tab1": [
        Claim("DoCompactionWork share / largest share", "1",
              lambda s: s["DoCompactionWork"] / max(s.values()), "== 1"),
        Claim("DoCompactionWork share", "0.614", lambda s: s["DoCompactionWork"], "> 0.4"),
        Claim("DoCompactionWork + file system share", "0.823",
              lambda s: s["DoCompactionWork"] + s["file system"], "> 0.6"),
    ],
    "fig07": [
        Claim("lowest UDC write amp over fan-outs", "-",
              lambda out: min(_udc_amps(out).values()), "> 2"),
        Claim("highest / lowest UDC write amp", "-",
              lambda out: max(_udc_amps(out).values()) / min(_udc_amps(out).values()), "> 1"),
        Claim("fan-out with the lowest UDC write amp", "3",
              lambda out: _arg(min, _udc_amps(out)), "<= 10"),
    ],
    "fig08": [
        Claim("P99.9 UDC/LDC", "2.62", lambda out: out["UDC"][99.9] / out["LDC"][99.9], "> 1"),
        Claim("P99.99 UDC/LDC", "2.06",
              lambda out: out["UDC"][99.99] / out["LDC"][99.99], "> 1.5"),
    ],
    "fig09": [
        *(Claim(f"average latency LDC/UDC, {mix}", paper,
                lambda out, mix=mix: _ratio(out, mix, "mean_latency_us"), bound)
          for mix, paper, bound in (("WH", "0.433", "< 1"), ("RWB", "0.456", "< 1"),
                                    ("RH", "1.0", "< 1.3"))),
        Claim("write amp UDC/LDC, RWB", "~fan-out (Thm 2.1/3.1)",
              lambda out: _ratio(out, "RWB", "write_amplification", "UDC", "LDC"), "> 1"),
        Claim("write amp UDC/LDC - the model's ratio, RWB", "-",
              lambda out: _ratio(out, "RWB", "write_amplification", "UDC", "LDC")
              - _model_wa_ratio(out), "<= 1"),
        Claim("eq. (2) picks the measured winner, RWB", "yes", _eq2_picks_winner, "== 1"),
    ],
    "fig10a": [
        *(Claim(f"LDC throughput gain, {mix}", paper,
                lambda out, mix=mix: _gain(out, mix), bound)
          for mix, paper, bound in (("WO", "0.780", "> 0.05"), ("WH", "0.737", "> 0"),
                                    ("RWB", "0.802", "> 0"), ("RO", "~0", "> -0.25"))),
        Claim("gain on WO - gain on RH", "0.620",
              lambda out: _gain(out, "WO") - _gain(out, "RH"), "> 0"),
    ],
    "fig10b": [
        Claim("LDC throughput gain, SCN-WH", "0.862", lambda out: _gain(out, "SCN-WH"), "> 0"),
        Claim("LDC throughput gain, SCN-RWB", "0.811",
              lambda out: _gain(out, "SCN-RWB"), "> -0.05"),
        Claim("gain on SCN-WH - gain on SCN-RH", "0.371",
              lambda out: _gain(out, "SCN-WH") - _gain(out, "SCN-RH"), ">= -0.05"),
    ],
    "fig10c": [
        Claim(f"LDC compaction I/O saving, {mix}", paper,
              lambda out, mix=mix: _saving(out, mix), "> 0.15")
        for mix, paper in (("WO", "~0.5"), ("WH", "0.470"), ("RWB", "~0.5"))
    ],
    "fig11": [
        *(Claim(f"{policy} throughput Zipf5/RWB", "> 1",
                lambda out, p=policy: out.result_for("Zipf5", p).throughput_ops_s
                / out.result_for("RWB", p).throughput_ops_s, "> 1")
          for policy in ("UDC", "LDC")),
        *(Claim(f"LDC/UDC throughput, {series}", paper,
                lambda out, s=series: _ratio(out, s, "throughput_ops_s"), "> 0.95")
          for series, paper in (("RWB", "1.387"), ("Zipf1", "-"), ("Zipf2", "-"),
                                ("Zipf5", "1.673"))),
    ],
    "fig12ad": [
        Claim("compaction I/O at the largest / smallest T_s", "< 1",
              lambda out: _at_ends(_by_knob(out, "LDC", "compaction_bytes_total")), "< 1"),
        Claim("T_s with the highest throughput", "10",
              lambda out: _arg(max, _by_knob(out, "LDC", "throughput_ops_s")), "> 2"),
    ],
    "fig12be": [
        Claim("lowest LDC throughput gain over fan-outs", "0.088",
              lambda out: min(_gain(out, label) for label in _labels(out)), "> -0.10"),
        Claim("gain at the largest fan-out - gain at the smallest", "1.791",
              lambda out: _gain(out, _labels(out)[-1]) - _gain(out, _labels(out)[0]), "> 0"),
        Claim("compaction I/O saving at the largest fan-out", "-",
              lambda out: _saving(out, _labels(out)[-1]), "> 0.2"),
    ],
    "fig12cf": [
        Claim(f"{policy} throughput spread across bits/key", "flat",
              lambda out, p=policy: _spread(out, p), "< 0.15")
        for policy in ("UDC", "LDC")
    ],
    "fig13": [
        Claim("block reads at 2 / at 16 bits per key", "> 1",
              lambda out: out[2]["block_reads"] / out[16]["block_reads"], "> 1"),
        Claim("block-read change from 16 to 64 bits per key", "~0",
              lambda out: abs(out[16]["block_reads"] - out[64]["block_reads"])
              / max(out[16]["block_reads"], 1), "< 0.05"),
        Claim("filter size at 64 / at 8 bits per key", "8",
              lambda out: out[64]["filter_bytes_per_table"] / out[8]["filter_bytes_per_table"],
              "== 8"),
    ],
    "fig14": [
        Claim("lowest LDC throughput gain over request counts", "0.39",
              lambda out: min(_gain(out, label) for label in _labels(out)), "> -0.05"),
        Claim("LDC throughput gain at the largest count", "0.39-0.65",
              lambda out: _gain(out, _labels(out)[-1]), "> 0"),
        Claim("compaction I/O saving at the largest count", "0.433-0.467",
              lambda out: _saving(out, _labels(out)[-1]), "> 0.15"),
    ],
    "fig15": [
        Claim("largest LDC space overhead", "0.100",
              lambda out: max(_space_overheads(out)), "< 1"),
        Claim("largest frozen region / its cap", "-", _frozen_over_cap, "<= 1"),
        Claim("smallest LDC space overhead", "0.0337",
              lambda out: min(_space_overheads(out)), "> -0.10"),
    ],
    "adaptive": [
        *(Claim(f"converged T_s, {high} - {low}", "-",
                lambda out, h=high, l=low: out.result_for(h, "LDC-adaptive").final_threshold
                - out.result_for(l, "LDC-adaptive").final_threshold, ">= 0")
          for high, low in (("WH", "RWB"), ("RWB", "RH"))),
        *(Claim(f"adaptive / fixed throughput, {mix}", "-",
                lambda out, mix=mix: _ratio(out, mix, "throughput_ops_s",
                                            "LDC-adaptive", "LDC-fixed"), "> 0.8")
          for mix in ("WH", "RWB", "RH")),
    ],
    "tiered": [
        Claim("MiB per round, Tiered / LDC", "much larger",
              lambda out: _mib_per_round(out, "Tiered") / _mib_per_round(out, "LDC"), "> 3"),
        Claim("max latency, Tiered / LDC", "much larger",
              lambda out: _max_us(out, "Tiered") / _max_us(out, "LDC"), "> 1"),
        Claim("write amp, Tiered / UDC", "-",
              lambda out: _ratio(out, "RWB", "write_amplification", "Tiered"), "< 1"),
        Claim("write amp, Delayed / UDC", "-",
              lambda out: _ratio(out, "RWB", "write_amplification", "Delayed"), "< 1"),
        Claim("MiB per round, Delayed / LDC", "much larger",
              lambda out: _mib_per_round(out, "Delayed") / _mib_per_round(out, "LDC"), "> 1"),
        Claim("max latency, Delayed / LDC", "much larger",
              lambda out: _max_us(out, "Delayed") / _max_us(out, "LDC"), "> 1"),
        Claim("P99 round bytes, LDC / UDC", "O(1) vs O(fan_out) files (eq. 3)",
              lambda out: _round_ratio(out, "p99"), "< 1"),
        Claim("max round bytes, LDC / UDC", "-", lambda out: _round_ratio(out, "max"), "<= 1"),
        Claim("max round bytes, Tiered / UDC", "-",
              lambda out: _round_ratio(out, "max", "Tiered"), "> 1"),
        Claim("compaction rounds, LDC / UDC", "more, smaller rounds",
              lambda out: _round_ratio(out, "count"), "> 1"),
    ],
    "asymmetry": [
        Claim("LDC throughput gain at 20:1 read:write", "-",
              lambda out: _gain(out, _labels(out)[0]), "> 0"),
        Claim("gain at 20:1 - gain at 1:1", "-",
              lambda out: _gain(out, _labels(out)[0]) - _gain(out, _labels(out)[-1]), "> 0"),
    ],
    "cache": [
        *(Claim(f"device block reads with / without the cache, {policy}", "fewer (§IV-E)",
                lambda out, p=policy: _with_cache(out, p, "sstable_blocks_read"), "< 1")
          for policy in ("UDC", "LDC")),
        *(Claim(f"throughput with / without the cache, {policy}", "-",
                lambda out, p=policy: _with_cache(out, p, "throughput_ops_s"), "> 1")
          for policy in ("UDC", "LDC")),
        Claim("LDC / UDC throughput with the cache", "~1 (§III-C)",
              lambda out: _ratio(out, "256KiB", "throughput_ops_s"), "> 0.9"),
    ],
    "frozen": [
        Claim("largest sampled frozen region / its valve", "bounded (§III-D)",
              _valve_peak, "<= 1"),
        Claim("recycled / ever frozen files", "every file, eventually",
              lambda out: out["recycled"] / max(1, out["frozen_ever"]), "> 0.5"),
        Claim("frozen region shrinks between samples", "-", _shrinks, "== 1"),
    ],
    "btree": [
        Claim("max stall, linked / eager absorption", "smaller tail (§V)",
              lambda out: _linked_over_eager(out, "max_us"), "< 1"),
        Claim("write amp, linked / eager absorption", "less (§V)",
              lambda out: _linked_over_eager(out, "write_amplification"), "< 1.5"),
    ],
    "fig_device_wa": [
        Claim("LDC / UDC total WA", "longer SSD lifetime",
              lambda out: _total_wa(out, "ldc") / _total_wa(out, "udc"), "< 1"),
        Claim("smallest device WA over the policies", "-",
              lambda out: min(result.device_write_amplification
                              for _, result in out["points"]), ">= 1"),
    ],
}
