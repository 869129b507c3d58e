"""Markdown report generation.

``python -m repro report --runs 1000 -o results.md`` regenerates every
figure and table at full size and writes a self-contained markdown
report (the measured side of EXPERIMENTS.md) — so the recorded numbers
are always one command away from the code that produced them.
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence

from ..types import SeriesResult, speed_change_items
from .figures import figure4, figure5, figure6
from .tables import table1, table2


def _series_markdown(series: SeriesResult, precision: int = 3) -> str:
    cols = series.schemes()
    out = io.StringIO()
    out.write(f"| {series.x_label} | " + " | ".join(cols) + " |\n")
    out.write("|" + "---|" * (len(cols) + 1) + "\n")
    for x in series.xs():
        cells = []
        for c in cols:
            p = series.get(x, c)
            cells.append(f"{p.mean:.{precision}f}" if p else "—")
        out.write(f"| {x:g} | " + " | ".join(cells) + " |\n")
    return out.getvalue()


def _switches_markdown(series: SeriesResult) -> str:
    items = speed_change_items(series.meta.get("speed_changes"))
    if not items:
        return ""
    cols = sorted({c for _, per_x in items for c in per_x})
    out = io.StringIO()
    out.write(f"| {series.x_label} | " + " | ".join(cols) + " |\n")
    out.write("|" + "---|" * (len(cols) + 1) + "\n")
    for x, per_x in items:
        out.write(f"| {x:g} | " + " | ".join(
            f"{per_x.get(c, float('nan')):.1f}" for c in cols)
            + " |\n")
    return out.getvalue()


def generate_report(n_runs: int = 1000, seed: int = 2002,
                    figures: Optional[Sequence[str]] = None) -> str:
    """Regenerate figures/tables and return the markdown report."""
    wanted = set(figures) if figures else {"fig4", "fig5", "fig6"}
    out = io.StringIO()
    out.write("# Measured results\n\n")
    out.write(f"Generated by `python -m repro report --runs {n_runs} "
              f"--seed {seed}`.\n\n")

    out.write("## Tables 1 and 2 — processor levels\n\n```\n")
    out.write(table1() + "\n\n" + table2() + "\n```\n\n")

    producers = {
        "fig4": ("Figure 4 — energy vs load, ATR, 2 processors",
                 figure4),
        "fig5": ("Figure 5 — energy vs load, ATR, 6 processors",
                 figure5),
        "fig6": ("Figure 6 — energy vs α, synthetic app, load 0.9",
                 figure6),
    }
    for key, (title, producer) in producers.items():
        if key not in wanted:
            continue
        out.write(f"## {title}\n\n")
        series_by_model: Dict[str, SeriesResult] = producer(
            n_runs=n_runs, seed=seed)
        for model, series in series_by_model.items():
            out.write(f"### {model}\n\n")
            out.write("Normalized energy (to NPM, {} runs/point):\n\n"
                      .format(n_runs))
            out.write(_series_markdown(series) + "\n")
            sw = _switches_markdown(series)
            if sw:
                out.write("Mean voltage/speed switches per run:\n\n")
                out.write(sw + "\n")
    return out.getvalue()


def write_report(path: str, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(generate_report(**kwargs))
