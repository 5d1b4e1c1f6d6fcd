"""Plain-text reporting: aligned tables and paper-comparison rows.

Every benchmark prints the series/rows of its paper figure next to the
paper's reported values, so EXPERIMENTS.md can quote the output directly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    materialised: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def mib(nbytes: float) -> float:
    return nbytes / 2**20


def paper_row(label: str, paper_value: str, measured_value: str) -> str:
    """One 'paper vs measured' comparison line."""
    return f"  {label:<40} paper: {paper_value:<18} measured: {measured_value}"
