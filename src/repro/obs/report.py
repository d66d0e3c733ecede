"""The machine-readable run report and its schema.

A :class:`RunMetrics` is what an :class:`~repro.obs.spans.Observer`
freezes into at the end of a run; the CLI's ``--metrics-out PATH`` writes
one per invocation, ``benchmarks/bench_profile.py`` commits one as the
perf-trajectory baseline, and ``repro metrics diff`` compares two of
them (see :mod:`repro.obs.diff`).

Schema (``repro.metrics/2``) — a single JSON object:

- ``schema``     — the literal version string;
- ``run``        — free-form run identity (command, seed, scale, ...);
    values must be JSON scalars;
- ``spans``      — ``{path: {count, total_s, min_s, max_s}}`` —
    hierarchical span paths are ``/``-joined;
- ``counters``   — ``{name: number}``;
- ``gauges``     — ``{name: number}``;
- ``histograms`` — ``{name: {bounds, counts, count, sum, min, max}}``
    where ``bounds`` are the strictly increasing bucket upper bounds and
    ``counts`` has one entry per bound plus a final overflow bucket
    (see :class:`~repro.obs.hist.Histogram`).

All numbers must be finite: serialisation uses ``allow_nan=False``
(standard JSON has no ``Infinity``/``NaN``) and
:func:`validate_metrics` reports non-finite values as problems; a
payload of any other schema, the retired ``/1`` included, is refused.

:func:`validate_metrics` checks a parsed payload against this shape and
returns a list of problems (empty = valid); :meth:`RunMetrics.from_dict`
raises on the first problem, so a round-trip is also a validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.hist import Histogram

SCHEMA_VERSION = "repro.metrics/2"

_SPAN_FIELDS = ("count", "total_s", "min_s", "max_s")
_HIST_SCALAR_FIELDS = ("count", "sum", "min", "max")


@dataclass
class RunMetrics:
    """One run's observability snapshot, serialisable to/from JSON."""

    run: Dict[str, object] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)
    schema: str = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "run": dict(self.run),
            "spans": {path: dict(stat) for path, stat in self.spans.items()},
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: dict(hist) for name, hist in self.histograms.items()
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        # allow_nan=False: standard JSON has no Infinity/NaN, and a
        # non-finite metric is a recording bug that must fail loudly
        # here, not in whatever later consumes the file.
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=True, allow_nan=False
        )

    def histogram(self, name: str) -> Histogram:
        """The named histogram, rehydrated (percentiles become available)."""
        return Histogram.from_dict(self.histograms[name])

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunMetrics":
        problems = validate_metrics(payload)
        if problems:
            raise ValueError(
                "invalid metrics payload: " + "; ".join(problems)
            )
        return cls(
            run=dict(payload["run"]),
            spans={
                path: {k: float(v) for k, v in stat.items()}
                for path, stat in payload["spans"].items()
            },
            counters={k: float(v) for k, v in payload["counters"].items()},
            gauges={k: float(v) for k, v in payload["gauges"].items()},
            histograms={
                name: dict(hist)
                for name, hist in payload.get("histograms", {}).items()
            },
            schema=payload["schema"],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunMetrics":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        from repro.util.atomic import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def read(cls, path: str) -> "RunMetrics":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value: object) -> bool:
    return _is_number(value) and math.isfinite(value)


def _describe_number(value: object) -> str:
    if _is_number(value) and not math.isfinite(value):
        return f"must be finite, got {value!r}"
    return "must be a number"


def _validate_histogram(name: str, hist: object, problems: List[str]) -> None:
    if not isinstance(hist, dict):
        problems.append(f"histograms[{name!r}] must be an object")
        return
    bounds = hist.get("bounds")
    counts = hist.get("counts")
    if not isinstance(bounds, list) or not bounds:
        problems.append(
            f"histograms[{name!r}] missing non-empty array 'bounds'"
        )
        bounds = None
    elif not all(_is_finite_number(b) for b in bounds):
        problems.append(f"histograms[{name!r}] bounds must be finite numbers")
        bounds = None
    elif any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        problems.append(
            f"histograms[{name!r}] bounds must be strictly increasing"
        )
    if not isinstance(counts, list):
        problems.append(f"histograms[{name!r}] missing array 'counts'")
        counts = None
    elif not all(_is_finite_number(c) and c >= 0 for c in counts):
        problems.append(
            f"histograms[{name!r}] counts must be non-negative numbers"
        )
        counts = None
    if bounds is not None and counts is not None:
        if len(counts) != len(bounds) + 1:
            problems.append(
                f"histograms[{name!r}] needs {len(bounds) + 1} buckets "
                f"(one per bound plus overflow), got {len(counts)}"
            )
    for field_name in _HIST_SCALAR_FIELDS:
        value = hist.get(field_name)
        if not _is_finite_number(value):
            problems.append(
                f"histograms[{name!r}].{field_name} "
                f"{_describe_number(value)}"
            )
    if (
        counts is not None
        and _is_finite_number(hist.get("count"))
        and sum(counts) != hist["count"]
    ):
        problems.append(
            f"histograms[{name!r}] count {hist['count']:g} disagrees with "
            f"bucket sum {sum(counts):g}"
        )
    extras = set(hist) - {"bounds", "counts", *_HIST_SCALAR_FIELDS}
    if extras:
        problems.append(
            f"histograms[{name!r}] has unknown fields {sorted(extras)}"
        )


def validate_metrics(payload: object) -> List[str]:
    """Check a parsed JSON payload against ``repro.metrics/2``.

    Returns a list of human-readable problems; an empty list means the
    payload is valid.  Non-finite numbers anywhere are problems — they
    cannot be represented in standard JSON and always indicate a
    recording bug upstream.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        problems.append(f"schema must be {SCHEMA_VERSION!r}, got {schema!r}")
    for section in ("run", "spans", "counters", "gauges"):
        if not isinstance(payload.get(section), dict):
            problems.append(f"missing or non-object section {section!r}")
    histograms = payload.get("histograms", {})
    if not isinstance(histograms, dict):
        problems.append("section 'histograms' must be an object")
    if problems:
        return problems
    for key, value in payload["run"].items():
        if value is not None and not isinstance(value, (str, int, float, bool)):
            problems.append(f"run[{key!r}] must be a JSON scalar")
        elif _is_number(value) and not math.isfinite(value):
            problems.append(f"run[{key!r}] must be finite, got {value!r}")
    for path, stat in payload["spans"].items():
        if not isinstance(stat, dict):
            problems.append(f"spans[{path!r}] must be an object")
            continue
        for field_name in _SPAN_FIELDS:
            value = stat.get(field_name)
            if not _is_finite_number(value):
                problems.append(
                    f"spans[{path!r}].{field_name} {_describe_number(value)}"
                )
        extras = set(stat) - set(_SPAN_FIELDS)
        if extras:
            problems.append(
                f"spans[{path!r}] has unknown fields {sorted(extras)}"
            )
    for section in ("counters", "gauges"):
        for name, value in payload[section].items():
            if not _is_finite_number(value):
                problems.append(
                    f"{section}[{name!r}] {_describe_number(value)}"
                )
    for name, hist in histograms.items():
        _validate_histogram(name, hist, problems)
    return problems


def render_profile(metrics: RunMetrics, max_rows: int = 40) -> str:
    """Human-readable profile for the CLI's ``--profile`` flag."""
    from repro.util.tables import format_table

    lines: List[str] = []
    if metrics.run:
        run_bits = ", ".join(
            f"{k}={v}" for k, v in sorted(metrics.run.items())
        )
        lines.append(f"run: {run_bits}")
    if metrics.spans:
        rows = []
        # Widest first so the hot phases lead (path breaks ties, keeping
        # the order stable); hierarchy stays readable because children
        # carry their parents' path prefix.
        ordered = sorted(
            metrics.spans.items(), key=lambda kv: (-kv[1]["total_s"], kv[0])
        )
        for path, stat in ordered[:max_rows]:
            rows.append(
                (
                    path,
                    int(stat["count"]),
                    f"{stat['total_s'] * 1e3:.2f}",
                    f"{stat['total_s'] / max(stat['count'], 1) * 1e3:.3f}",
                    f"{stat['max_s'] * 1e3:.3f}",
                )
            )
        lines.append(
            format_table(
                ("span", "count", "total ms", "mean ms", "max ms"),
                rows,
                title="timing spans",
            )
        )
    if metrics.histograms:
        rows = []
        for name in sorted(metrics.histograms):
            summary = metrics.histogram(name).summary()
            rows.append(
                (
                    name,
                    int(summary["count"]),
                    f"{summary['p50']:g}",
                    f"{summary['p90']:g}",
                    f"{summary['p99']:g}",
                    f"{summary['max']:g}",
                )
            )
        lines.append(
            format_table(
                ("histogram", "count", "p50", "p90", "p99", "max"),
                rows,
                title="histograms",
            )
        )
    if metrics.counters:
        rows = [
            (name, f"{value:g}")
            for name, value in sorted(metrics.counters.items())
        ]
        lines.append(format_table(("counter", "value"), rows, title="counters"))
    if metrics.gauges:
        rows = [
            (name, f"{value:g}")
            for name, value in sorted(metrics.gauges.items())
        ]
        lines.append(format_table(("gauge", "value"), rows, title="gauges"))
    if not lines:
        lines.append("(no observability data recorded)")
    return "\n".join(lines)
