"""Crash-persistent flight recorder: ``repro.telemetry/1`` JSONL snapshots.

A multi-minute crawl or sharded search is a black box while it runs —
metrics only materialise if the run finishes cleanly.  A
:class:`FlightRecorder` fixes that: a daemon thread appends one JSON
snapshot line to a shared file every ``interval_s``, each line written
via :func:`repro.util.atomic.append_line` (single ``O_APPEND`` write +
fsync), so

- a SIGKILLed run still leaves a usable timeline up to its last
  heartbeat, with at most one torn final line (which the reader
  tolerates);
- every worker of a sharded run appends to the *same* file concurrently
  without interleaving, each line tagged with its ``source`` ("main",
  "shard 0", ...) and pid.

Schema (``repro.telemetry/1``) — one JSON object per line, every line
carries ``schema`` and ``kind``:

- ``kind: "start"`` — run metadata: ``source``, ``pid``, ``ts``,
  ``mono_s``, ``interval_s``, optional ``run`` dict (scale, seed, ...);
- ``kind: "snapshot"`` — ``seq`` (per-source counter), ``ts`` (wall
  clock), ``mono_s`` (shared monotonic clock), ``heartbeat_s`` (seconds
  since this source started), ``progress`` (the observer's
  ``progress/*`` gauges, prefix stripped), ``resource`` (one
  :class:`~repro.obs.resource.ResourceSample` as a flat dict),
  ``top_spans`` (top-k
  ``[path, count, total_s]`` by cumulative time);
- ``kind: "end"`` — final snapshot fields plus ``outcome``.

Determinism contract: the recorder only *reads* observer state and
process accounting; it never draws randomness and never feeds back into
the run, so a seeded run is byte-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.resource import ResourceSample, read_resource_sample
from repro.obs.spans import NULL_OBSERVER, Observer
from repro.util.atomic import append_line

__all__ = [
    "FlightRecorder",
    "TELEMETRY_SCHEMA",
    "TelemetrySpec",
    "read_telemetry",
    "record_telemetry",
    "validate_telemetry",
    "validate_telemetry_record",
]

TELEMETRY_SCHEMA = "repro.telemetry/1"


@dataclass(frozen=True)
class TelemetrySpec:
    """Where and how often to record telemetry — picklable, so the
    sharded coordinator can hand it to worker processes, each of which
    starts its own :class:`FlightRecorder` against the shared file."""

    path: str
    interval_s: float = 1.0

#: How many span paths a snapshot carries (the biggest time sinks).
TOP_SPANS = 6

#: Gauges with this prefix surface in snapshots' ``progress`` dicts.
PROGRESS_PREFIX = "progress/"


def _dump(record: Dict[str, object]) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


class FlightRecorder:
    """Periodic telemetry snapshots of one process, appended to a JSONL.

    Each snapshot takes one fresh :func:`read_resource_sample` and reads
    the observer's gauges and span aggregates under the GIL — dict
    snapshots via ``list(d.items())`` are safe against a
    concurrently-mutating owner thread.  ``start()`` writes the start
    line and launches the thread; ``close()`` writes a final snapshot
    plus the end line and folds the run's resource gauges (last sample,
    peak RSS, sample count) into the observer (prefix ``resource/`` for
    the main source, ``resource/{source}/`` otherwise) so the run's
    metrics JSON records them too.  Entry points open and close one
    through :func:`record_telemetry`.
    """

    def __init__(
        self,
        path: str,
        obs: Optional[Observer] = None,
        interval_s: float = 1.0,
        source: str = "main",
        run: Optional[Dict[str, object]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.path = os.fspath(path)
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.interval_s = interval_s
        self.source = source
        self.run = dict(run or {})
        self.seq = 0
        self._last_sample: Optional[ResourceSample] = None
        self._rss_max_bytes = 0
        self._samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._start_mono = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------
    # Snapshot assembly

    def _progress_dict(self) -> Dict[str, float]:
        return dict(
            sorted(
                (name[len(PROGRESS_PREFIX) :], value)
                for name, value in list(self.obs.gauges.items())
                if name.startswith(PROGRESS_PREFIX)
            )
        )

    def _top_spans(self) -> List[List[object]]:
        totals: List[Tuple[str, int, float]] = [
            (path, stat.count, stat.total_s)
            for path, stat in list(self.obs.span_stats.items())
        ]
        totals.sort(key=lambda item: (-item[2], item[0]))
        return [
            [path, count, round(total_s, 6)]
            for path, count, total_s in totals[:TOP_SPANS]
        ]

    def _snapshot_record(self, kind: str = "snapshot") -> Dict[str, object]:
        sample = read_resource_sample()
        self._last_sample = sample
        self._rss_max_bytes = max(self._rss_max_bytes, sample.rss_bytes)
        self._samples += 1
        now_mono = time.monotonic()
        record: Dict[str, object] = {
            "schema": TELEMETRY_SCHEMA,
            "kind": kind,
            "seq": self.seq,
            "ts": time.time(),
            "mono_s": now_mono,
            "source": self.source,
            "pid": os.getpid(),
            "heartbeat_s": round(now_mono - self._start_mono, 6),
            "progress": self._progress_dict(),
            "resource": sample.as_dict(),
            "top_spans": self._top_spans(),
        }
        self.seq += 1
        return record

    # ------------------------------------------------------------------
    # Writing

    def _write(self, record: Dict[str, object]) -> None:
        try:
            append_line(self.path, _dump(record))
        except OSError:
            # Telemetry must never take the run down; a full disk or a
            # removed directory degrades to a silent gap in the timeline.
            pass

    def snapshot_now(self) -> Dict[str, object]:
        """Write (and return) one snapshot immediately."""
        record = self._snapshot_record()
        self._write(record)
        return record

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> "FlightRecorder":
        if self._thread is not None:
            return self
        self._write(
            {
                "schema": TELEMETRY_SCHEMA,
                "kind": "start",
                "ts": time.time(),
                "mono_s": time.monotonic(),
                "source": self.source,
                "pid": os.getpid(),
                "interval_s": self.interval_s,
                "run": self.run,
            }
        )
        self.snapshot_now()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-flight-recorder", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.snapshot_now()

    def close(self, outcome: str = "completed") -> None:
        """Final snapshot + end line; folds resource gauges into ``obs``.

        Idempotent: the second and later calls do nothing, so ``close``
        can sit in both a ``finally:`` and an explicit success path.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        record = self._snapshot_record(kind="end")
        record["outcome"] = outcome
        self._write(record)
        last = self._last_sample
        prefix = (
            "resource/"
            if self.source == "main"
            else f"resource/{self.source}/"
        )
        for name, value in (
            ("rss_max_bytes", float(self._rss_max_bytes)),
            ("rss_last_bytes", float(last.rss_bytes)),
            ("cpu_user_s", last.cpu_user_s),
            ("cpu_system_s", last.cpu_system_s),
            ("io_read_bytes", float(last.io_read_bytes)),
            ("io_write_bytes", float(last.io_write_bytes)),
            ("gc_collections", float(last.gc_collections)),
            ("samples", float(self._samples)),
        ):
            self.obs.gauge(prefix + name, value)


@contextmanager
def record_telemetry(
    spec: Optional[TelemetrySpec],
    obs: Observer,
    source: str = "main",
    run: Optional[Dict[str, object]] = None,
) -> Iterator[None]:
    """Flight-record the block into ``spec.path``; a no-op without a spec.

    The one lifecycle every entry point uses: the recorder starts
    before the block and closes after it, and its end record says
    ``failed`` when the block raised (``KeyboardInterrupt`` and
    ``SystemExit`` included) and ``completed`` otherwise.
    """
    if spec is None:
        yield
        return
    recorder = FlightRecorder(
        spec.path, obs, interval_s=spec.interval_s, source=source, run=run
    ).start()
    outcome = "failed"
    try:
        yield
        outcome = "completed"
    finally:
        recorder.close(outcome)


# ----------------------------------------------------------------------
# Reading

def read_telemetry(path: str) -> Tuple[List[Dict[str, object]], bool]:
    """Parse a telemetry JSONL; returns ``(records, truncated)``.

    A crash can tear at most the final line (one ``append_line`` call is
    one ``write``); a torn tail parses as invalid JSON and is reported
    via ``truncated=True`` rather than raised.  Any *non*-final
    unparseable line is a real corruption and raises ``ValueError``.
    """
    records: List[Dict[str, object]] = []
    truncated = False
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except ValueError:
            if index == len(lines) - 1:
                truncated = True
                break
            raise ValueError(
                f"{path}:{index + 1}: unparseable non-final telemetry line"
            )
        records.append(record)
    return records, truncated


def validate_telemetry_record(record: Dict[str, object]) -> List[str]:
    """Shape-check one parsed telemetry record; [] means valid."""
    problems: List[str] = []
    if record.get("schema") != TELEMETRY_SCHEMA:
        problems.append(
            f"schema must be {TELEMETRY_SCHEMA!r}, got {record.get('schema')!r}"
        )
    kind = record.get("kind")
    if kind not in ("start", "snapshot", "end"):
        problems.append(f"unknown kind {kind!r}")
        return problems
    for field in ("ts", "mono_s"):
        if not isinstance(record.get(field), (int, float)):
            problems.append(f"missing numeric {field!r}")
    if not isinstance(record.get("source"), str):
        problems.append("missing 'source'")
    if not isinstance(record.get("pid"), int):
        problems.append("missing integer 'pid'")
    if kind in ("snapshot", "end"):
        if not isinstance(record.get("seq"), int):
            problems.append("snapshot missing integer 'seq'")
        if not isinstance(record.get("heartbeat_s"), (int, float)):
            problems.append("snapshot missing numeric 'heartbeat_s'")
        for field in ("progress", "resource"):
            if not isinstance(record.get(field), dict):
                problems.append(f"snapshot missing {field!r} object")
        if not isinstance(record.get("top_spans"), list):
            problems.append("snapshot missing 'top_spans' array")
    return problems


def validate_telemetry(path: str) -> List[str]:
    """Validate a whole telemetry file; [] means every record is valid.

    A torn final line (crash artefact) is *not* a problem; an empty file
    or corruption mid-file is.
    """
    try:
        records, _truncated = read_telemetry(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if not records:
        return [f"{path}: no complete telemetry records"]
    problems: List[str] = []
    for index, record in enumerate(records):
        for problem in validate_telemetry_record(record):
            problems.append(f"{path}:{index + 1}: {problem}")
    return problems
