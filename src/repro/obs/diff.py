"""Comparing two run-metrics files: the perf-regression gate.

``repro metrics diff BASELINE CURRENT [--fail-on SPEC]`` loads two
:class:`~repro.obs.report.RunMetrics` files (``repro.metrics/2``) and
compares them metric by metric.  The committed
``benchmarks/results/bench-profile.json`` baseline only earns its keep
if something *fails* when a change regresses it — this module is that
gate: CI diffs a fresh bench-profile run against the baseline and exits
non-zero on regression.

What is compared
----------------

- ``counters``   — every counter, by name;
- ``gauges``     — every gauge, by name;
- ``spans``      — every span path's ``total_s`` (the timing signal;
  span *counts* mirror counters, which are already compared exactly);
- ``histograms`` — every histogram's ``count`` and estimated ``p99``,
  addressed as ``<name>:count`` / ``<name>:p99``.

A metric present in the baseline but missing from the current run is a
regression (the instrumentation lost coverage); a metric only in the
current run is reported as *new* but does not fail the gate.

Tolerance-spec grammar
----------------------

A spec is a comma-separated list of ``selector=tolerance`` rules::

    counters=0,gauges=0,spans=0.5:0.05,histograms:*:p99=0.5:0.005

- ``selector`` is a section name (``counters``, ``gauges``, ``spans``,
  ``histograms``), optionally followed by ``:<glob>`` matched
  (:mod:`fnmatch`) against the metric id within that section —
  the counter/gauge name, the span path, or ``<hist-name>:<field>``;
- ``tolerance`` is a relative fraction (``0`` = exact, ``0.5`` = ±50 %),
  optionally followed by ``:<abs>``, an absolute floor below which any
  drift passes (soaks up wall-clock noise on near-zero timings);
  ``ignore`` skips the matching metrics entirely.

Later rules override earlier ones for the metrics they match; metrics no
rule matches are compared exactly.  A metric passes when
``|current - baseline| <= max(rel * |baseline|, abs)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Tuple

from repro.obs.report import RunMetrics

SECTIONS = ("counters", "gauges", "spans", "histograms")

#: The default gate: deterministic metrics exact, timings ±50 % with a
#: small absolute floor for wall-clock noise.
DEFAULT_TOLERANCE_SPEC = (
    "counters=0,gauges=0,spans=0.5:0.05,"
    "histograms:*:count=0,histograms:*:p99=0.5:0.005"
)


@dataclass(frozen=True)
class ToleranceRule:
    """One parsed ``selector=tolerance`` clause."""

    section: str
    pattern: str = "*"
    rel: float = 0.0
    abs_floor: float = 0.0

    def matches(self, section: str, metric: str) -> bool:
        return section == self.section and fnmatchcase(metric, self.pattern)

    def allows(self, baseline: float, current: float) -> bool:
        if math.isinf(self.rel):
            return True
        return abs(current - baseline) <= max(
            self.rel * abs(baseline), self.abs_floor
        )

    def describe(self) -> str:
        if math.isinf(self.rel):
            return "ignore"
        text = f"±{self.rel:g}"
        if self.abs_floor:
            text += f" (abs ≥ {self.abs_floor:g})"
        return text


#: Applied when no spec rule matches a metric: exact comparison.
EXACT = ToleranceRule(section="*", pattern="*")


def parse_tolerance_spec(spec: str) -> List[ToleranceRule]:
    """Parse the ``--fail-on`` grammar into an ordered rule list."""
    rules: List[ToleranceRule] = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(
                f"bad tolerance clause {clause!r}: expected selector=tolerance"
            )
        selector, _, tolerance = clause.partition("=")
        section, _, pattern = selector.partition(":")
        if section not in SECTIONS:
            raise ValueError(
                f"bad tolerance clause {clause!r}: unknown section "
                f"{section!r} (choose from {', '.join(SECTIONS)})"
            )
        pattern = pattern or "*"
        if tolerance.strip() == "ignore":
            rel, abs_floor = math.inf, 0.0
        else:
            rel_text, _, abs_text = tolerance.partition(":")
            try:
                rel = float(rel_text)
                abs_floor = float(abs_text) if abs_text else 0.0
            except ValueError:
                raise ValueError(
                    f"bad tolerance clause {clause!r}: tolerance must be "
                    "rel[:abs] or 'ignore'"
                ) from None
            if rel < 0 or abs_floor < 0:
                raise ValueError(
                    f"bad tolerance clause {clause!r}: tolerances must be >= 0"
                )
        rules.append(
            ToleranceRule(
                section=section, pattern=pattern, rel=rel, abs_floor=abs_floor
            )
        )
    return rules


def _rule_for(
    rules: List[ToleranceRule], section: str, metric: str
) -> ToleranceRule:
    chosen = EXACT
    for rule in rules:  # later rules override earlier ones
        if rule.matches(section, metric):
            chosen = rule
    return chosen


def _comparable(metrics: RunMetrics) -> Dict[str, Dict[str, float]]:
    """Flatten a RunMetrics into ``{section: {metric_id: value}}``."""
    flat: Dict[str, Dict[str, float]] = {
        "counters": dict(metrics.counters),
        "gauges": dict(metrics.gauges),
        "spans": {
            path: stat["total_s"] for path, stat in metrics.spans.items()
        },
        "histograms": {},
    }
    for name in metrics.histograms:
        hist = metrics.histogram(name)
        flat["histograms"][f"{name}:count"] = float(hist.count)
        flat["histograms"][f"{name}:p99"] = hist.percentile(0.99)
    return flat


@dataclass
class DiffEntry:
    """One metric's comparison outcome."""

    section: str
    metric: str
    status: str  # ok | regression | missing | new | ignored
    baseline: float = 0.0
    current: float = 0.0
    tolerance: str = ""

    @property
    def qualified(self) -> str:
        return f"{self.section}/{self.metric}"

    def delta_text(self) -> str:
        if self.status == "missing":
            return "gone"
        if self.status == "new":
            return "new"
        delta = self.current - self.baseline
        if self.baseline:
            return f"{delta:+g} ({100 * delta / self.baseline:+.1f}%)"
        return f"{delta:+g}"


@dataclass
class MetricsDiff:
    """All per-metric outcomes of one baseline/current comparison."""

    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffEntry]:
        return [
            e for e in self.entries if e.status in ("regression", "missing")
        ]

    @property
    def new_metrics(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "new"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """The human-readable per-metric report the CLI prints."""
        from repro.util.tables import format_table

        compared = sum(
            1 for e in self.entries if e.status not in ("new", "ignored")
        )
        lines = [
            f"metrics diff: {compared} compared, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.new_metrics)} new"
        ]
        if self.regressions:
            rows = [
                (
                    e.qualified,
                    f"{e.baseline:g}" if e.status != "new" else "-",
                    f"{e.current:g}" if e.status != "missing" else "-",
                    e.delta_text(),
                    e.tolerance,
                )
                for e in self.regressions
            ]
            lines.append(
                format_table(
                    ("metric", "baseline", "current", "delta", "allowed"),
                    rows,
                    title="regressions",
                )
            )
        else:
            lines.append("all metrics within tolerance")
        if self.new_metrics:
            names = ", ".join(e.qualified for e in self.new_metrics[:10])
            more = len(self.new_metrics) - 10
            if more > 0:
                names += f", ... (+{more})"
            lines.append(f"new metrics (not gated): {names}")
        return "\n".join(lines)


def diff_metrics(
    baseline: RunMetrics,
    current: RunMetrics,
    rules: List[ToleranceRule],
) -> MetricsDiff:
    """Compare ``current`` against ``baseline`` under the rule list."""
    diff = MetricsDiff()
    base_flat = _comparable(baseline)
    cur_flat = _comparable(current)
    for section in SECTIONS:
        base_section = base_flat[section]
        cur_section = cur_flat[section]
        for metric in sorted(set(base_section) | set(cur_section)):
            rule = _rule_for(rules, section, metric)
            entry = DiffEntry(
                section=section,
                metric=metric,
                status="ok",
                baseline=base_section.get(metric, 0.0),
                current=cur_section.get(metric, 0.0),
                tolerance=rule.describe(),
            )
            if math.isinf(rule.rel):
                entry.status = "ignored"
            elif metric not in base_section:
                entry.status = "new"
            elif metric not in cur_section:
                entry.status = "missing"
            elif not rule.allows(entry.baseline, entry.current):
                entry.status = "regression"
            diff.entries.append(entry)
    return diff
