"""Plain-text rendering for experiment outputs.

Benchmarks reproduce the paper's tables and figures as text: tables become
aligned column dumps and figures become per-series rows.  Keeping rendering
in one place means every benchmark prints in the same format, which makes
``bench_output.txt`` diffable across runs.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.util.cdf import spaced_indices


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
    float_fmt: str = "{:.3g}",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned monospace table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_fmt.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(series_list, title: str = "", max_points: int = 24) -> str:
    """Render a list of :class:`repro.util.cdf.Series` as text.

    Long series are down-sampled to ``max_points`` evenly spaced points so
    benchmark output stays readable; the first and last points are always
    included.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    for series in series_list:
        n = len(series)
        if n == 0:
            lines.append(f"  {series.name}: <empty>")
            continue
        points = ", ".join(
            f"({series.xs[i]:.4g}, {series.ys[i]:.4g})"
            for i in spaced_indices(n, max_points)
        )
        lines.append(f"  {series.name} [{n} pts]: {points}")
    return "\n".join(lines)


def percent(value: float) -> str:
    """Format a fraction as a percentage string, e.g. ``0.41 -> '41.0%'``."""
    return f"{100.0 * value:.1f}%"
