"""Hierarchical timing spans and named counters.

An :class:`Observer` is the single recording surface a component needs:

- ``with obs.span("sweep"): ...`` times a phase on the monotonic clock and
  aggregates it under a ``/``-joined hierarchical path (``crawl/day/sweep``
  when entered inside ``crawl`` and ``day`` spans);
- ``obs.record_span("one_hop", elapsed)`` feeds a pre-measured duration
  into the same aggregate, for hot loops where a context manager per
  iteration would be too chatty;
- ``obs.count("browse_attempts")`` / ``obs.gauge("delivery_rate", 0.98)``
  keep named scalars;
- ``obs.hist("search/hops_per_request", hops, bounds=COUNT_BOUNDS)``
  feeds a fixed-bucket :class:`~repro.obs.hist.Histogram`, for the
  distributional metrics scalar aggregates cannot express;
- ``obs.instant("day_start", args={"day": 3})`` marks a point on an
  attached event tracer (a no-op without one).

Spans are *aggregated*, not logged: each path keeps count/total/min/max,
so memory stays bounded over arbitrarily long runs — the always-on
counters a long-running capture needs.  Event-level capture is opt-in:
attach a :class:`~repro.obs.events.TraceRecorder` (``tracer=``) and
every closed span additionally emits one Chrome ``trace_event`` complete
event into its bounded ring.

Determinism contract: an Observer never draws randomness and never feeds
back into simulation state, so enabling it cannot perturb a seeded run.
When disabled, ``span`` returns a shared no-op context manager and every
other method returns immediately — negligible overhead on hot paths.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.obs.hist import Histogram


@dataclass
class SpanStat:
    """Aggregate timing of one span path."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def add(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class _NullSpan:
    """Shared do-nothing context manager returned when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: pushes its name on the observer's stack while open."""

    __slots__ = ("_observer", "_name", "_start")

    def __init__(self, observer: "Observer", name: str) -> None:
        self._observer = observer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._observer._push(self._name)
        self._start = self._observer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = self._observer.clock() - self._start
        self._observer._pop(elapsed, self._start)
        return False


class Observer:
    """Span/counter recorder carried by the instrumented layers.

    ``clock`` is injectable for tests; it defaults to
    :func:`time.perf_counter` (monotonic, high resolution).  ``tracer``
    optionally attaches a :class:`~repro.obs.events.TraceRecorder`:
    every closed span then also emits an event into the tracer's ring,
    and :meth:`instant` becomes live.
    """

    __slots__ = (
        "enabled",
        "clock",
        "tracer",
        "span_stats",
        "counters",
        "gauges",
        "histograms",
        "_stack",
    )

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        tracer=None,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.tracer = tracer
        self.span_stats: Dict[str, SpanStat] = {}
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._stack: List[str] = []

    # ------------------------------------------------------------------
    # Spans

    def span(self, name: str):
        """Context manager timing ``name`` under the current span path."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def record_span(
        self, name: str, elapsed_s: float, start_s: Optional[float] = None
    ) -> None:
        """Fold a pre-measured duration into ``name``'s aggregate.

        Hot loops that time with explicit clock reads pass the start
        instant too, so an attached tracer can place the event on the
        timeline; without ``start_s`` only the aggregate is fed.
        """
        if not self.enabled:
            return
        path = self._path(name)
        self._stat_for(path).add(elapsed_s)
        if self.tracer is not None and start_s is not None:
            self.tracer.complete(path, start_s, elapsed_s)

    def _path(self, name: str) -> str:
        if not self._stack:
            return name
        return "/".join(self._stack) + "/" + name

    def _stat_for(self, path: str) -> SpanStat:
        stat = self.span_stats.get(path)
        if stat is None:
            stat = self.span_stats[path] = SpanStat()
        return stat

    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, elapsed_s: float, start_s: float) -> None:
        path = "/".join(self._stack)
        self._stack.pop()
        self._stat_for(path).add(elapsed_s)
        if self.tracer is not None:
            self.tracer.complete(path, start_s, elapsed_s)

    def instant(
        self,
        name: str,
        args: Optional[Dict[str, object]] = None,
        cat: str = "instant",
    ) -> None:
        """Mark a point event on the attached tracer (no aggregation).

        The name is joined under the current span path, so a message hop
        recorded during a browse shows up as
        ``crawl/day/browse/BrowseRequest``."""
        if not self.enabled or self.tracer is None:
            return
        self.tracer.instant(self._path(name), cat=cat, args=args)

    # ------------------------------------------------------------------
    # Counters / gauges

    def count(self, name: str, n: float = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def hist(
        self,
        name: str,
        value: float,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Record ``value`` into the named histogram.

        The histogram is created on first use with ``bounds`` (or the
        default latency ladder); later calls fold into the existing one
        and their ``bounds`` argument is ignored, so call sites can pass
        the constant unconditionally.
        """
        if not self.enabled:
            return
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = (
                Histogram(bounds) if bounds is not None else Histogram()
            )
        hist.record(value)

    def merge_counters(
        self, values: Mapping[str, float], prefix: str = ""
    ) -> None:
        """Add a flat mapping of numeric values into the counters.

        This is how per-subsystem accounting that already exists
        (``FaultStats.as_dict()``, ``MessageStats.sent``, ``CrawlStats``)
        is unified into one report without double bookkeeping.
        """
        if not self.enabled:
            return
        for name, value in values.items():
            key = prefix + name
            self.counters[key] = self.counters.get(key, 0) + float(value)

    # ------------------------------------------------------------------
    # Merging (sharded runs)

    def merge_from(self, other: "Observer") -> None:
        """Fold another observer's aggregates into this one.

        The sharded runner gives each worker its own Observer and folds
        them back in a deterministic order; counters, span aggregates and
        histograms are commutative sums, while gauges are last-write —
        the caller's merge order decides which write wins, matching the
        sequential run when workers are folded in submission order.

        ``other`` must have no open spans: a half-open span has not been
        aggregated yet, so merging would silently drop it — that is a
        caller bug and raises ``ValueError``.  (Open spans on *self* are
        fine; its stack is untouched.)  If both observers carry tracers,
        ``other``'s events are folded onto this timeline too, under
        ``other``'s own pid and process name.
        """
        if not self.enabled:
            return
        if other._stack:
            raise ValueError(
                "cannot merge an observer with open spans: "
                + "/".join(other._stack)
            )
        for path, stat in other.span_stats.items():
            mine = self._stat_for(path)
            mine.count += stat.count
            mine.total_s += stat.total_s
            if stat.count:
                if stat.min_s < mine.min_s:
                    mine.min_s = stat.min_s
                if stat.max_s > mine.max_s:
                    mine.max_s = stat.max_s
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine_hist = self.histograms.get(name)
            if mine_hist is None:
                self.histograms[name] = Histogram.from_dict(hist.as_dict())
            else:
                mine_hist.merge(hist)
        if (
            self.tracer is not None
            and other.tracer is not None
            and other.tracer is not self.tracer
        ):
            self.tracer.merge_from(other.tracer)

    # ------------------------------------------------------------------
    # Reporting

    def report(self, run: Optional[Dict[str, object]] = None):
        """Freeze the current state into a :class:`RunMetrics`."""
        from repro.obs.report import RunMetrics

        return RunMetrics(
            run=dict(run or {}),
            spans={
                path: stat.as_dict()
                for path, stat in sorted(self.span_stats.items())
            },
            counters=dict(sorted(self.counters.items())),
            gauges=dict(sorted(self.gauges.items())),
            histograms={
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            },
        )


#: Shared disabled observer — the default for every instrumented layer.
#: It is safe to share because a disabled Observer mutates nothing.
NULL_OBSERVER = Observer(enabled=False)
