"""Render the perfbench trajectory as one table.

Each ``BENCH_PR<n>.json`` at the checkout root
(``repro.bench-trajectory/1``) holds, per perfbench workload and
end-to-end metric, the parent's and the change's medians over the PR's
pairs.  ``repro bench-summary`` lists one row per workload and metric,
file by file in PR order, and lists a file it cannot read as one error
row instead of failing.
"""

from __future__ import annotations

import glob
import json
import os
from pathlib import Path
from typing import List, Tuple

__all__ = ["checkout_dir", "collate_trajectory", "render_summary"]

TRAJECTORY_SCHEMA = "repro.bench-trajectory/1"

#: One table row: (file, "workload metric", rendered headline).
Row = Tuple[str, str, str]


def checkout_dir() -> str:
    """The checkout holding this package's ``src/``, or the working
    directory when the package was not imported from a checkout."""
    root = Path(__file__).resolve().parents[3]
    return str(root) if (root / "benchmarks" / "results").is_dir() else os.getcwd()


def _fmt(value: float) -> str:
    if value >= 100 or value == int(value):
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def _trajectory_rows(payload: dict) -> List[Tuple[str, str]]:
    if payload.get("schema") != TRAJECTORY_SCHEMA:
        raise ValueError(f"schema is not {TRAJECTORY_SCHEMA!r}")
    rows = []
    for workload, runs in sorted(payload["workloads"].items()):
        for metric, stats in sorted(runs["metrics"].items()):
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            headline = {
                "parent": parent,
                "change": change,
                "ratio": change / parent,
                "wins": stats["wins"],
                "pairs": runs["pairs"],
            }
            shown = " ".join(
                f"{key}={_fmt(float(value))}" for key, value in headline.items()
            )
            rows.append((f"{workload} {metric}", shown))
    return rows


def collate_trajectory(root: str) -> List[Row]:
    """The rows of every ``BENCH_PR*.json`` in ``root``, in PR order.

    An unreadable file becomes one row carrying its error — the table
    must render the history even when one file is corrupt.
    """
    paths = sorted(
        glob.glob(os.path.join(root, "BENCH_PR*.json")),
        key=lambda path: (len(path), path),
    )
    rows: List[Row] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("top-level JSON is not an object")
            found = _trajectory_rows(payload)
        except (OSError, ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
            found = [("-", f"error: {exc}")]
        rows.extend((os.path.basename(path), *row) for row in found)
    return rows


def render_summary(rows: List[Row]) -> str:
    from repro.util.tables import format_table

    return format_table(
        ("file", "benchmark", "headline"),
        rows,
        title=f"Benchmark trajectory ({len(rows)} results)",
    )
