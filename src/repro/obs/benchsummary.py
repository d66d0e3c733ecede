"""Collate ``benchmarks/results/*.json`` into one perf-trajectory table.

Each committed benchmark baseline has its own JSON shape (a
``repro.metrics`` payload for the profile/chaos benches, bespoke
objects for scaling/store/telemetry).  ``repro bench-summary``
reads them all and renders one table — the performance history of the
repo in a single glance instead of eight files — plus a machine-readable
``repro.bench-summary/1`` JSON for dashboards.

Unknown files are still listed (headline ``-``) rather than skipped, so
a new benchmark shows up here the day its baseline lands even before a
summariser is taught its shape.  Each ``BENCH_PR<n>.json`` at the checkout
root (``repro.bench-trajectory/1``) adds one row per perfbench workload and
end-to-end metric: the parent's and the change's medians over the PR's pairs.
"""

from __future__ import annotations

import glob
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "SUMMARY_SCHEMA",
    "checkout_dir",
    "collate_results",
    "render_summary",
    "summary_to_json",
]

SUMMARY_SCHEMA = "repro.bench-summary/1"
TRAJECTORY_SCHEMA = "repro.bench-trajectory/1"


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


def _headline_metrics(payload: Dict[str, object]) -> Dict[str, float]:
    """Headline for a ``repro.metrics`` payload: wall time + volume."""
    spans = payload.get("spans", {})
    headline: Dict[str, float] = {}
    if isinstance(spans, dict) and spans:
        headline["wall_s"] = max(
            float(stat.get("total_s", 0.0))
            for stat in spans.values()
            if isinstance(stat, dict)
        )
    for section in ("counters", "gauges", "histograms"):
        values = payload.get(section)
        if isinstance(values, dict):
            headline[section] = float(len(values))
    # Service-mode runs (bench-serve, `repro loadgen`) carry their
    # latency/throughput summary as gauges — surface those instead of
    # the bare section sizes.
    gauges = payload.get("gauges", {})
    if isinstance(gauges, dict) and "loadgen/p99_ms" in gauges:
        for section in ("counters", "gauges", "histograms"):
            headline.pop(section, None)
        for key, label in (
            ("loadgen/achieved_rps", "rps"),
            ("loadgen/p50_ms", "p50_ms"),
            ("loadgen/p99_ms", "p99_ms"),
        ):
            if key in gauges:
                headline[label] = float(gauges[key])
    return headline


def _headline_scaling(payload: Dict[str, object]) -> Dict[str, float]:
    headline: Dict[str, float] = {}
    baseline = payload.get("baseline", {})
    if isinstance(baseline, dict) and "rss_mb" in baseline:
        headline["baseline_rss_mb"] = float(baseline["rss_mb"])
    strong = payload.get("strong", {})
    runs = strong.get("runs", {}) if isinstance(strong, dict) else {}
    best = 0.0
    for entry in runs.values():
        if isinstance(entry, dict) and "speedup" in entry:
            best = max(best, float(entry["speedup"]))
    if best:
        headline["best_speedup"] = best
    return headline


def _headline_store(payload: Dict[str, object]) -> Dict[str, float]:
    headline: Dict[str, float] = {}
    for key, label in (
        ("rss_ratio", "rss_ratio"),
        ("min_rss_ratio", "gate"),
        ("convert_secs", "convert_s"),
    ):
        if key in payload:
            headline[label] = float(payload[key])
    return headline


def _headline_telemetry(payload: Dict[str, object]) -> Dict[str, float]:
    headline: Dict[str, float] = {}
    for key, label in (
        ("off_secs", "off_s"),
        ("on_secs", "on_s"),
        ("overhead_ratio", "overhead"),
        ("max_ratio", "gate"),
    ):
        if key in payload:
            headline[label] = float(payload[key])
    return headline


_SUMMARISERS = {
    "bench-scaling": _headline_scaling,
    "bench-store": _headline_store,
    "bench-telemetry": _headline_telemetry,
}


def summarise_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """One summary entry (benchmark, kind, headline) for a parsed JSON."""
    schema = payload.get("schema")
    if isinstance(schema, str) and schema.startswith("repro.metrics"):
        run = payload.get("run", {})
        name = run.get("benchmark") or run.get("command") or "metrics"
        return {
            "benchmark": str(name),
            "kind": "metrics",
            "headline": _headline_metrics(payload),
        }
    name = payload.get("benchmark")
    if isinstance(name, str):
        summarise = _SUMMARISERS.get(name, lambda _payload: {})
        return {
            "benchmark": name,
            "kind": "benchmark",
            "headline": summarise(payload),
        }
    return {"benchmark": "unknown", "kind": "unknown", "headline": {}}


def _trajectory_entries(payload: Dict[str, object]) -> List[Dict[str, object]]:
    entries: List[Dict[str, object]] = []
    for workload, runs in sorted(payload["workloads"].items()):
        for metric, stats in sorted(runs["metrics"].items()):
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            headline = {"parent": parent, "change": change, "ratio": change / parent}
            headline.update(wins=stats["wins"], pairs=runs["pairs"])
            entries.append(
                {"benchmark": f"{workload} {metric}", "kind": "perfbench", "headline": headline}
            )
    return entries


def collate_results(results_dir: str, root: str) -> List[Dict[str, object]]:
    """Summary entries for every ``*.json`` in ``results_dir``, sorted,
    then those of every ``BENCH_PR*.json`` in ``root``, in PR order.

    Unreadable files become ``kind: "error"`` entries — the summary must
    render the history even when one baseline is corrupt.
    """
    names = sorted(name for name in os.listdir(results_dir) if name.endswith(".json"))
    paths = [os.path.join(results_dir, name) for name in names]
    trajectory = glob.glob(os.path.join(root, "BENCH_PR*.json"))
    paths += sorted(trajectory, key=lambda path: (len(path), path))
    entries: List[Dict[str, object]] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("top-level JSON is not an object")
            if payload.get("schema") == TRAJECTORY_SCHEMA:
                found = _trajectory_entries(payload)
            else:
                found = [summarise_payload(payload)]
        except (OSError, ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
            found = [{"benchmark": "-", "kind": "error", "headline": {}, "error": str(exc)}]
        entries.extend(dict(entry, file=os.path.basename(path)) for entry in found)
    return entries


def render_summary(entries: List[Dict[str, object]]) -> str:
    from repro.util.tables import format_table

    rows = []
    for entry in entries:
        headline = entry.get("headline", {})
        shown = (
            " ".join(
                f"{key}={_fmt(float(value))}" for key, value in headline.items()
            )
            if headline
            else entry.get("error", "-")
        )
        rows.append((entry["file"], entry["benchmark"], entry["kind"], shown))
    return format_table(
        ("file", "benchmark", "kind", "headline"),
        rows,
        title=f"Benchmark trajectory ({len(rows)} results)",
    )


def summary_to_json(entries: List[Dict[str, object]]) -> str:
    return json.dumps(
        {"schema": SUMMARY_SCHEMA, "results": entries},
        indent=2,
        sort_keys=True,
    )
