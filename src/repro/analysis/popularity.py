"""File-popularity analyses: replication vs rank and popularity dynamics
(Figures 5, 8, 9 and 10).

Every analysis runs over a :class:`~repro.trace.model.DaySource` — an
in-memory :class:`~repro.trace.model.Trace` or an on-disk
:class:`~repro.trace.store.TraceStore` — looping over days on the outside
and holding one day's counts at a time, so a store-backed run never maps
more than one day segment.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.trace.model import DaySource, FileId, Trace
from repro.util.cdf import Series


def _by_replication(counts: Counter) -> List[FileId]:
    """Files in decreasing replica count, ties broken by id."""
    ordered = sorted(counts)
    # The sort is stable (reverse included): equal counts keep id order.
    ordered.sort(key=counts.__getitem__, reverse=True)
    return ordered


def rank_replication(
    source: DaySource, day: int, max_rank: Optional[int] = None
) -> Series:
    """Sources-per-file against file rank for one day (Figure 5).

    Rank 1 is the most replicated file of the day.  ``max_rank`` truncates
    the tail (the figure's x axis is logarithmic, so the tail adds little).
    """
    counts = source.replica_counts(day)
    ordered = sorted(counts.values(), reverse=True)
    if max_rank is not None:
        ordered = ordered[:max_rank]
    series = Series(name=f"day {day} ({len(counts)} files)")
    for rank, sources in enumerate(ordered, start=1):
        series.append(rank, sources)
    return series


def top_files_on(source: DaySource, day: int, k: int) -> List[FileId]:
    """The ``k`` most replicated files of ``day`` (ties broken by id)."""
    return _by_replication(source.replica_counts(day))[:k]


def file_spread(
    source: DaySource,
    file_ids: Optional[Sequence[FileId]] = None,
    top_k: int = 6,
    reference_day: Optional[int] = None,
) -> List[Series]:
    """Per-day spread — fraction of observed clients sharing the file —
    for the given files (Figure 8).

    When ``file_ids`` is omitted the overall top ``top_k`` files (by static
    replica count, or by replication on ``reference_day``) are tracked.
    The static selection needs whole-trace state, so a store requires
    ``file_ids`` or ``reference_day``.
    """
    if file_ids is None:
        if reference_day is not None:
            file_ids = top_files_on(source, reference_day, top_k)
        elif isinstance(source, Trace):
            file_ids = _by_replication(source.static_replica_counts())[:top_k]
        else:
            raise ValueError(
                "file_spread over a store needs file_ids or reference_day: "
                "the static top-k default requires whole-trace state"
            )
    out = [Series(name=f"#{i}") for i in range(1, len(file_ids) + 1)]
    for day in source.days():
        observed = len(source.snapshots_on(day))
        if not observed:
            continue
        counts = source.replica_counts(day)
        for series, fid in zip(out, file_ids):
            series.append(day, 100.0 * counts[fid] / observed)
    return out


def rank_of_files(source: DaySource, day: int) -> Dict[FileId, int]:
    """Rank (1 = most replicated) of every file observed on ``day``."""
    ordered = _by_replication(source.replica_counts(day))
    return {fid: rank for rank, fid in enumerate(ordered, start=1)}


def rank_evolution(
    source: DaySource, reference_day: int, top_k: int = 5
) -> List[Series]:
    """Daily rank of ``reference_day``'s top files (Figures 9 and 10).

    Days on which a file is not observed at all yield no point (the paper's
    curves have similar gaps).
    """
    tracked = top_files_on(source, reference_day, top_k)
    out = [Series(name=f"#{i}") for i in range(1, len(tracked) + 1)]
    for day in source.days():
        ranks = rank_of_files(source, day)
        for series, fid in zip(out, tracked):
            rank = ranks.get(fid)
            if rank is not None:
                series.append(day, rank)
    return out


def max_spread_fraction(source: DaySource) -> float:
    """The largest single-day spread of any file (fraction of that day's
    observed clients) — the paper reports under 0.7%, motivating the ~143
    peers a flooding search must contact."""
    best = 0.0
    for day in source.days():
        counts = source.replica_counts(day)
        if counts:
            observed = len(source.snapshots_on(day))
            best = max(best, max(counts.values()) / observed)
    return best
