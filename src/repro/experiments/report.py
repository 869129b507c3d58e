"""Text rendering of experiment series (the "figures" as tables).

The paper's figures plot normalized energy against load or α with one
curve per scheme; :func:`render_series` prints the same data as an
aligned table (x down the rows, schemes across the columns), which is
what the benches and the CLI emit and what EXPERIMENTS.md records.
"""

from __future__ import annotations

import io
from typing import List, Optional, Sequence

from ..types import SeriesResult, speed_change_items


def render_series(series: SeriesResult, precision: int = 3,
                  with_ci: bool = False,
                  schemes: Optional[Sequence[str]] = None) -> str:
    """Render a sweep as an aligned text table."""
    cols = list(schemes) if schemes else series.schemes()
    xs = series.xs()
    width = max(9, precision + 5 + (7 if with_ci else 0))
    out = io.StringIO()
    header_meta = ", ".join(f"{k}={v}" for k, v in series.meta.items()
                            if k not in ("speed_changes", "online", "obs"))
    out.write(f"# {series.name}")
    if header_meta:
        out.write(f"  [{header_meta}]")
    out.write("\n")
    out.write(f"{series.x_label:>10} " +
              " ".join(f"{c:>{width}}" for c in cols) + "\n")
    for x in xs:
        cells: List[str] = []
        for c in cols:
            p = series.get(x, c)
            if p is None:
                cells.append("-".rjust(width))
            elif with_ci:
                cells.append(
                    f"{p.mean:.{precision}f}±{p.ci95:.{precision}f}"
                    .rjust(width))
            else:
                cells.append(f"{p.mean:.{precision}f}".rjust(width))
        out.write(f"{x:>10g} " + " ".join(cells) + "\n")
    return out.getvalue()


def render_speed_changes(series: SeriesResult, precision: int = 1) -> str:
    """Mean voltage/speed switches per run (the overhead explanation)."""
    items = speed_change_items(series.meta.get("speed_changes"))
    if not items:
        return "(no speed-change data recorded)\n"
    cols = sorted({c for _, per_x in items for c in per_x})
    width = max(8, precision + 6)
    out = io.StringIO()
    out.write(f"# {series.name}: mean speed changes per run\n")
    out.write(f"{series.x_label:>10} " +
              " ".join(f"{c:>{width}}" for c in cols) + "\n")
    for x, row in items:
        out.write(f"{x:>10g} " +
                  " ".join(f"{row.get(c, float('nan')):>{width}.{precision}f}"
                           for c in cols) + "\n")
    return out.getvalue()


def render_online_meta(series: SeriesResult, precision: int = 3) -> str:
    """The online stream ledger behind an arrival-rate sweep.

    Renders ``series.meta["online"]`` (written by
    :func:`~repro.experiments.online.sweep_arrival_rate`): per rate the
    arrival/admit/reject counts and each scheme's deadline-miss ratio.
    """
    meta = series.meta.get("online")
    if not meta:
        return "(no online stream data recorded)\n"
    ratios = {x: row for x, row in meta.get("miss_ratio", [])}
    counts = {
        name: {x: n for x, n in meta.get(name, [])}
        for name in ("arrivals", "admitted", "rejected")
    }
    cols = sorted({c for row in ratios.values() for c in row})
    width = max(8, precision + 5)
    out = io.StringIO()
    out.write(f"# {series.name}: stream ledger "
              f"(arrival={meta.get('arrival')}, load={meta.get('load')}, "
              f"miss ratio per scheme)\n")
    out.write(f"{series.x_label:>10} {'arriv':>7} {'admit':>7} {'rej':>7} "
              + " ".join(f"{c:>{width}}" for c in cols) + "\n")
    for x in sorted(ratios):
        row = ratios[x]
        out.write(
            f"{x:>10g} {counts['arrivals'].get(x, 0):>7} "
            f"{counts['admitted'].get(x, 0):>7} "
            f"{counts['rejected'].get(x, 0):>7} "
            + " ".join(f"{row.get(c, float('nan')):>{width}.{precision}f}"
                       for c in cols) + "\n")
    return out.getvalue()


def series_to_csv(series: SeriesResult) -> str:
    """Machine-readable CSV (x, scheme, mean, std, ci95, n_runs)."""
    out = io.StringIO()
    out.write("x,scheme,mean,std,ci95,n_runs\n")
    for p in series.points:
        out.write(f"{p.x},{p.scheme},{p.mean:.6f},{p.std:.6f},"
                  f"{p.ci95:.6f},{p.n_runs}\n")
    return out.getvalue()
