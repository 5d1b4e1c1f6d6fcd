"""``benchmarks/claims.py`` stays in step with the CLI's figure table.

Checked without running a simulation: every claimed figure is one
``repro`` runs, every figure that had a benchmark of its own keeps at
least one claim, and a figure without a claim is listed with its reason.
The claims that moved out of CI's inline scripts are also read off one
tiny run of their figure, so a typo in a ``measure`` fails here.
"""

import importlib.util
import math
import pathlib

import pytest

from repro.cli import EXPERIMENTS, FIGURES

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "claims.py"
_SPEC = importlib.util.spec_from_file_location("paper_claims", _PATH)
claims = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(claims)

#: The figures that each had a hand-wired benchmark file before the
#: claims table replaced them.
BENCHMARKED = {
    "fig01", "tab1", "fig07", "fig08", "fig09", "fig10a", "fig10b", "fig10c",
    "fig11", "fig12ad", "fig12be", "fig12cf", "fig13", "fig14", "fig15",
    "adaptive", "tiered", "asymmetry",
}


def test_every_claimed_figure_is_a_cli_figure():
    assert set(claims.CLAIMS) <= set(FIGURES)


def test_every_figure_is_dispatched_by_main():
    for name, figure in FIGURES.items():
        assert EXPERIMENTS[name] is figure


def test_every_benchmarked_figure_keeps_a_claim():
    for name in BENCHMARKED:
        assert claims.CLAIMS.get(name), name


def test_a_figure_without_a_claim_is_listed_with_its_reason():
    assert set(FIGURES) - set(claims.CLAIMS) == set(claims.UNCLAIMED)
    assert not set(claims.CLAIMS) & set(claims.UNCLAIMED)
    assert set(claims.UNCLAIMED) == {"fig01s", "shard_scaling", "paper_scale"}
    assert all(reason.strip() for reason in claims.UNCLAIMED.values())


def test_every_claim_is_named_once_with_a_bound_that_parses():
    for name, figure_claims in claims.CLAIMS.items():
        names = [claim.claim for claim in figure_claims]
        assert len(names) == len(set(names)), name
        for claim in figure_claims:
            op, value = claim.bound.split()
            assert op in claims.OPS, claim
            float(value)
            assert callable(claim.measure) and claim.paper, claim


def test_holds_reads_the_bound():
    claim = claims.Claim("x", "-", float, "> 0.5")
    assert claims.holds(claim, 0.6) and not claims.holds(claim, 0.5)
    assert claims.holds(claim._replace(bound="== 8"), 8.0)


@pytest.mark.parametrize("figure", ["fig_device_wa", "fig01_open_loop"])
def test_each_claim_reads_a_finite_float_off_a_tiny_run(figure):
    out = FIGURES[figure].run(1200, 400)
    for claim in claims.CLAIMS[figure]:
        measured = claim.measure(out)
        assert isinstance(measured, float) and math.isfinite(measured), claim
