"""Observability: timing spans, histograms, event tracing, run metrics.

The subsystem has four parts:

- :mod:`repro.obs.spans` — the :class:`Observer`, a hierarchical
  span/counter/histogram recorder that hot layers (crawler, network,
  search) carry.  Disabled (the default) it is a near-free no-op and
  touches no RNG, so seeded runs are byte-identical with observability
  on or off.
- :mod:`repro.obs.hist` — :class:`Histogram`, fixed log-spaced buckets
  with p50/p90/p99 summaries, for the distributional metrics (hops per
  query, phase latencies) scalar aggregates cannot express.
- :mod:`repro.obs.events` — :class:`TraceRecorder`, an opt-in bounded
  ring of structured events exportable as Chrome ``trace_event`` JSON
  (``--trace-out``, loadable in ``chrome://tracing``/Perfetto).
- :mod:`repro.obs.report` — :class:`RunMetrics`, the JSON-serialisable
  report (schema ``repro.metrics/2``) an
  :class:`Observer` produces, plus its validator and the ``--profile``
  renderer — and :mod:`repro.obs.diff`, the metrics diff/regression
  gate behind ``repro metrics diff``.

The live-telemetry plane adds four more:

- :mod:`repro.obs.resource` — :func:`read_resource_sample`, one
  psutil-free ``/proc``-based RSS/CPU/IO/GC reading with a portable
  fallback;
- :mod:`repro.obs.telemetry` — :class:`FlightRecorder`, the
  crash-persistent ``repro.telemetry/1`` JSONL snapshot stream
  (``--telemetry-out``) that takes one resource reading per snapshot,
  plus its reader and validator.  Every entry point (each telemetered
  CLI command, ``Runner.run`` and each sharded search worker) opens
  and closes its recorder through :func:`record_telemetry`, whose end
  record says ``failed`` when the run raised and ``completed``
  otherwise;
- :mod:`repro.obs.log` — the tiny leveled stderr logger
  (``REPRO_LOG=debug|info|quiet``) progress narration goes through;
- :mod:`repro.obs.htmlreport` — the standalone HTML run report
  renderer behind ``repro report``.
"""

from repro.obs.diff import (
    DEFAULT_TOLERANCE_SPEC,
    MetricsDiff,
    ToleranceRule,
    diff_metrics,
    parse_tolerance_spec,
)
from repro.obs.events import TraceRecorder, validate_chrome_trace
from repro.obs.hist import COUNT_BOUNDS, LATENCY_BOUNDS_S, Histogram, log_bounds
from repro.obs.log import LOG, Log, get_log, log_level, set_context
from repro.obs.resource import ResourceSample
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    FlightRecorder,
    TelemetrySpec,
    read_telemetry,
    record_telemetry,
    validate_telemetry,
)
from repro.obs.report import (
    SCHEMA_VERSION,
    RunMetrics,
    render_profile,
    validate_metrics,
)
from repro.obs.spans import NULL_OBSERVER, Observer, SpanStat

__all__ = [
    "COUNT_BOUNDS",
    "DEFAULT_TOLERANCE_SPEC",
    "FlightRecorder",
    "Histogram",
    "LATENCY_BOUNDS_S",
    "LOG",
    "Log",
    "MetricsDiff",
    "NULL_OBSERVER",
    "Observer",
    "ResourceSample",
    "RunMetrics",
    "SCHEMA_VERSION",
    "SpanStat",
    "TELEMETRY_SCHEMA",
    "TelemetrySpec",
    "ToleranceRule",
    "TraceRecorder",
    "diff_metrics",
    "get_log",
    "log_bounds",
    "log_level",
    "parse_tolerance_spec",
    "read_telemetry",
    "record_telemetry",
    "render_profile",
    "set_context",
    "validate_chrome_trace",
    "validate_metrics",
    "validate_telemetry",
]
