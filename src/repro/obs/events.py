"""Event-level tracing: bounded structured events, Chrome trace export.

Where :mod:`repro.obs.spans` *aggregates* (memory-bounded counters for
always-on capture), a :class:`TraceRecorder` keeps the individual
events — the raw per-query stream the eDonkey measurement literature
analyses ("Ten weeks in the life of an eDonkey server" works from the
per-query log; the distributed-honeypot study reconstructs behaviour
from event streams).  The recorder is opt-in (``--trace-out``) and
bounded: a ring buffer of ``max_events`` keeps the most recent events
and counts what it dropped, so even a pathological run cannot exhaust
memory.

Events carry monotonic timestamps relative to the recorder's epoch and
export as Chrome ``trace_event`` JSON (the ``{"traceEvents": [...]}``
object format), loadable in ``chrome://tracing`` or Perfetto:

- ``complete`` events (``ph: "X"``) — one per closed span, with ``ts``
  and ``dur`` in microseconds; crawl days, search phases and message
  round-trips render as a flame view;
- ``instant`` events (``ph: "i"``) — point markers: message hops,
  per-query lifecycle records (with their structured payload in
  ``args``), day boundaries.

The determinism contract of the observability layer extends to tracing:
a recorder never draws randomness and never feeds back into simulation
state, so seeded runs are byte-identical with tracing on or off.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Dict, List, Optional

#: Default ring capacity — enough for a small run's full event stream,
#: bounded for a large one (the newest events win).
DEFAULT_MAX_EVENTS = 200_000


class TraceRecorder:
    """Bounded ring of structured events with monotonic timestamps.

    ``pid``/``process_name`` label this recorder's own events on the
    exported timeline; a sharded run gives each worker its shard number
    as ``pid`` and the coordinator folds the rings together with
    :meth:`merge_from`, so one Chrome trace shows every process as its
    own named track.
    """

    __slots__ = (
        "clock",
        "epoch",
        "pid",
        "_process_names",
        "_events",
        "dropped",
    )

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = DEFAULT_MAX_EVENTS,
        pid: int = 1,
        process_name: str = "repro",
    ) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be > 0, got {max_events}")
        self.clock = clock
        self.epoch = clock()
        self.pid = pid
        self._process_names: Dict[int, str] = {pid: process_name}
        # Each entry: (ph, name, cat, ts_us, dur_us, args, pid)
        self._events: deque = deque(maxlen=max_events)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def _append(self, event) -> None:
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(event)

    def _ts_us(self, instant_s: float) -> float:
        return (instant_s - self.epoch) * 1e6

    # ------------------------------------------------------------------
    # Recording

    def complete(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        cat: str = "span",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """One closed span: ``start_s`` on the recorder's clock, ``dur_s``
        long."""
        self._append(
            ("X", name, cat, self._ts_us(start_s), dur_s * 1e6, args, self.pid)
        )

    def instant(
        self,
        name: str,
        cat: str = "instant",
        args: Optional[Dict[str, object]] = None,
        ts_s: Optional[float] = None,
    ) -> None:
        """A point event, stamped now unless ``ts_s`` is given."""
        instant_s = self.clock() if ts_s is None else ts_s
        self._append(
            ("i", name, cat, self._ts_us(instant_s), None, args, self.pid)
        )

    # ------------------------------------------------------------------
    # Merging (sharded runs)

    def merge_from(self, other: "TraceRecorder") -> None:
        """Fold another recorder's events onto this timeline.

        ``other``'s timestamps are re-based through the epoch delta —
        valid because ``time.perf_counter`` is the system-wide
        ``CLOCK_MONOTONIC`` on Linux, so two processes' epochs live on
        the same clock.  The merged events keep their own ``pid``,
        rendering as a separate named process track.
        """
        merge_pid = other.pid
        self._process_names[merge_pid] = other._process_names.get(
            merge_pid, f"pid {merge_pid}"
        )
        delta_us = (other.epoch - self.epoch) * 1e6
        for ph, ev_name, cat, ts_us, dur_us, args, _pid in other._events:
            self._append(
                (ph, ev_name, cat, ts_us + delta_us, dur_us, args, merge_pid)
            )
        self.dropped += other.dropped

    # ------------------------------------------------------------------
    # Chrome trace_event export

    def to_chrome(self) -> Dict[str, object]:
        """The Chrome ``trace_event`` JSON object (object format)."""
        trace_events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": meta_pid,
                "tid": 1,
                "ts": 0,
                "args": {"name": meta_name},
            }
            for meta_pid, meta_name in sorted(self._process_names.items())
        ]
        for ph, name, cat, ts_us, dur_us, args, ev_pid in self._events:
            event: Dict[str, object] = {
                "ph": ph,
                "name": name,
                "cat": cat,
                "ts": ts_us,
                "pid": ev_pid,
                "tid": 1,
            }
            if ph == "X":
                event["dur"] = dur_us
            elif ph == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                event["args"] = dict(args)
            trace_events.append(event)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), allow_nan=False)

    def write_chrome(self, path: str) -> None:
        from repro.util.atomic import atomic_write_text

        atomic_write_text(path, self.to_chrome_json() + "\n")


def validate_chrome_trace(payload: object) -> List[str]:
    """Shape-check a parsed Chrome trace (object format).

    Returns human-readable problems; empty means the payload is a trace
    ``chrome://tracing``/Perfetto will load.  Used by the tests and the
    CI artifact check rather than by the recorder itself (which emits
    valid traces by construction).
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"trace must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{index}] must be an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"traceEvents[{index}] missing 'ph'")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"traceEvents[{index}] missing 'name'")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"traceEvents[{index}] missing numeric 'ts'")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(
                f"traceEvents[{index}] complete event missing numeric 'dur'"
            )
    return problems
