"""The common result type of all experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.cdf import Series
from repro.util.tables import render_series


@dataclass
class ExperimentResult:
    """One reproduced table or figure.

    ``experiment_id`` matches the paper artefact (e.g. ``"figure-18"``),
    ``series`` carries figure curves, ``table_text`` carries pre-rendered
    tables, and ``metrics`` holds the headline scalar values that tests and
    EXPERIMENTS.md reference (e.g. ``{"lru@20": 0.41}``).
    """

    experiment_id: str
    title: str
    series: List[Series] = field(default_factory=list)
    table_text: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self, max_points: int = 24) -> str:
        lines: List[str] = [f"=== {self.experiment_id}: {self.title} ==="]
        if self.table_text:
            lines.append(self.table_text)
        if self.series:
            lines.append(render_series(self.series, max_points=max_points))
        if self.metrics:
            metric_bits = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(self.metrics.items())
            )
            lines.append(f"metrics: {metric_bits}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)

    def metric(self, key: str) -> float:
        if key not in self.metrics:
            raise KeyError(
                f"metric {key!r} not in {sorted(self.metrics)} "
                f"for {self.experiment_id}"
            )
        return self.metrics[key]

    def series_named(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(
            f"series {name!r} not in {[s.name for s in self.series]}"
        )

    def to_csv(self) -> str:
        """Figure data as CSV: one ``series,x,y`` row per point, plus one
        ``metric,<name>,<value>`` row per metric.

        Meant for plotting the reproduced figures with external tools;
        quoting keeps series names with commas safe.
        """
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("kind", "name_or_x", "value"))
        for series in self.series:
            for x, y in zip(series.xs, series.ys):
                writer.writerow((f"series:{series.name}", x, y))
        for name, value in sorted(self.metrics.items()):
            writer.writerow(("metric", name, value))
        return buffer.getvalue()

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())
