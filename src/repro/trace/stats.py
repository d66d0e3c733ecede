"""Trace-level statistics (Table 1, Figures 1-3).

These functions compute the paper's "general trace characteristics": the
per-day client/file counts (Figure 1), the new-vs-total file discovery curve
(Figure 2), the post-extrapolation daily counts (Figure 3) and the summary
rows of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

from repro.trace.model import FileId, Trace
from repro.util.cdf import Series


@dataclass(frozen=True)
class TraceCharacteristics:
    """The rows of Table 1 for one trace variant."""

    duration_days: int
    num_clients: int
    num_free_riders: int
    num_snapshots: int
    num_distinct_files: int
    total_bytes_distinct_files: int

    @property
    def free_rider_fraction(self) -> float:
        if self.num_clients == 0:
            return 0.0
        return self.num_free_riders / self.num_clients


def general_characteristics(trace: Trace) -> TraceCharacteristics:
    """Compute the Table 1 summary for a trace."""
    days = trace.days()
    duration = (days[-1] - days[0] + 1) if days else 0
    distinct = trace.distinct_files()
    total_bytes = 0
    for fid in distinct:
        meta = trace.files.get(fid)
        if meta is not None:
            total_bytes += meta.size
    return TraceCharacteristics(
        duration_days=duration,
        num_clients=len(trace.clients),
        num_free_riders=len(trace.free_riders()),
        num_snapshots=trace.num_snapshots,
        num_distinct_files=len(distinct),
        total_bytes_distinct_files=total_bytes,
    )


def daily_counts(trace: Trace) -> Tuple[Series, Series, Series]:
    """Per-day series: clients browsed, files observed (with multiplicity
    collapsed per day), and non-empty caches.

    Returns ``(clients, files, non_empty_caches)`` — the data behind
    Figures 1 and 3.
    """
    clients = Series(name="clients")
    files = Series(name="files")
    non_empty = Series(name="non-empty caches")
    for day in trace.days():
        snaps = trace.snapshots_on(day)
        day_files: Set[FileId] = set()
        n_non_empty = 0
        for cache in snaps.values():
            day_files.update(cache)
            if cache:
                n_non_empty += 1
        clients.append(day, len(snaps))
        files.append(day, len(day_files))
        non_empty.append(day, n_non_empty)
    return clients, files, non_empty


def discovery_curve(trace: Trace) -> Tuple[Series, Series]:
    """New files discovered per day and the cumulative total (Figure 2)."""
    seen: Set[FileId] = set()
    new_files = Series(name="new files")
    total_files = Series(name="total files")
    for day in trace.days():
        fresh = 0
        for cache in trace.snapshots_on(day).values():
            for fid in cache:
                if fid not in seen:
                    seen.add(fid)
                    fresh += 1
        new_files.append(day, fresh)
        total_files.append(day, len(seen))
    return new_files, total_files


def new_files_per_client_per_day(trace: Trace) -> float:
    """Average number of never-before-seen files contributed per browsed
    client per day — the paper reports ~5 for its trace."""
    new_files, _ = discovery_curve(trace)
    clients, _, _ = daily_counts(trace)
    days = trace.days()
    if len(days) < 2:
        raise ValueError("need at least 2 days to measure discovery rate")
    # Skip the first day: everything is "new" on day one by construction.
    total_new = sum(new_files.ys[1:])
    total_clients = sum(clients.ys[1:])
    if total_clients == 0:
        return 0.0
    return total_new / total_clients
