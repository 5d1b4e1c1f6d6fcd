"""Every figure of ``claims.CLAIMS``, run as ``repro <fig>`` runs it: prints
the CLI's table and a paper-vs-measured row per claim, and fails naming
every claim that does not hold."""

import pytest

from repro.cli import FIGURES
from repro.harness.report import format_table

from claims import CLAIMS, holds
from conftest import run_once


@pytest.mark.parametrize("figure", list(CLAIMS))
def test_paper_claims(benchmark, bench_ops, bench_keys, figure):
    run, show = FIGURES[figure]
    out = run_once(benchmark, lambda: run(bench_ops, bench_keys))
    print()
    show(out)
    rows, failed = [], []
    for claim in CLAIMS[figure]:
        measured = claim.measure(out)
        ok = holds(claim, measured)
        rows.append((claim.claim, claim.paper, f"{measured:.4g}", claim.bound,
                     "yes" if ok else "NO"))
        if not ok:
            failed.append(f"{claim.claim} = {measured:.4g}, wanted {claim.bound}")
    print(format_table(["claim", "paper", "measured", "bound", "holds"], rows,
                       title=f"{figure}: paper vs measured "
                             f"({bench_ops} ops, {bench_keys} keys)"))
    assert not failed, f"{figure}: " + "; ".join(failed)
