"""Peer contribution and file-size analyses (Figures 6 and 7).

Figure 6 plots the cumulative distribution of file sizes for files above
several popularity thresholds; Figure 7 plots the per-client CDFs of the
number of files and the disk space shared, with and without free-riders.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.trace.model import StaticTrace
from repro.util.cdf import Series, empirical_cdf


def size_cdf_by_popularity(
    trace: StaticTrace,
    popularity_thresholds: Sequence[int] = (1, 5, 10),
    max_points: int = 200,
) -> List[Series]:
    """CDFs of file size for files with popularity >= each threshold.

    Popularity here is the static replica count (distinct clients ever
    sharing the file), the paper's source-count measure.  Sizes are in KB
    to match the figure's axis.
    """
    counts = trace.replica_counts()
    out: List[Series] = []
    for threshold in popularity_thresholds:
        sizes_kb = [
            trace.files[fid].size / 1024.0
            for fid in counts
            if counts[fid] >= threshold and fid in trace.files
        ]
        series = Series(name=f"popularity >= {threshold}")
        if sizes_kb:
            xs, ps = empirical_cdf(sizes_kb)
            for x, p in _downsample(xs, ps, max_points):
                series.append(x, p)
        out.append(series)
    return out


def temporal_contribution_cdfs(trace, max_points: int = 200) -> Dict[str, Series]:
    """Figure 7 on a *temporal* trace: per-client contribution measured as
    the mean observed cache size (and mean shared bytes) over the client's
    observation days.

    The union-over-days view (``trace.to_static()``) overstates what a
    client shares at any point in time once churn accumulates (5 adds/day
    for 56 days triples a median cache); the paper's per-client counts are
    instantaneous, so this is the faithful input for the figure.
    """
    file_counts_full: List[float] = []
    file_counts_sharers: List[float] = []
    space_full: List[float] = []
    space_sharers: List[float] = []
    for client_id in trace.clients:
        days = trace.observation_days(client_id)
        if not days:
            continue
        sizes = []
        bytes_shared = []
        for day in days:
            cache = trace.cache(client_id, day)
            sizes.append(len(cache))
            total = 0
            for fid in cache:
                meta = trace.files.get(fid)
                if meta is not None:
                    total += meta.size
            bytes_shared.append(total)
        mean_files = sum(sizes) / len(sizes)
        mean_gb = (sum(bytes_shared) / len(bytes_shared)) / (1024.0**3)
        file_counts_full.append(mean_files)
        space_full.append(mean_gb)
        if mean_files > 0:
            file_counts_sharers.append(mean_files)
            space_sharers.append(mean_gb)

    def to_series(name: str, samples: List[float]) -> Series:
        series = Series(name=name)
        if samples:
            xs, ps = empirical_cdf(samples)
            for x, p in _downsample(xs, ps, max_points):
                series.append(x, p)
        return series

    return {
        "files_full": to_series("Files (full)", file_counts_full),
        "files_sharers": to_series("Files (free-riders excluded)", file_counts_sharers),
        "space_full": to_series("Space (full)", space_full),
        "space_sharers": to_series("Space (free-riders excluded)", space_sharers),
    }


def generosity_concentration(trace: StaticTrace, top_fraction: float = 0.15) -> float:
    """Fraction of all file replicas offered by the top ``top_fraction`` of
    sharers — the paper's "top 15% peers offer 75% of the files"."""
    generosity = sorted(
        (len(cache) for cache in trace.caches.values() if cache), reverse=True
    )
    if not generosity:
        raise ValueError("trace has no sharers")
    total = sum(generosity)
    k = max(1, int(round(top_fraction * len(generosity))))
    return sum(generosity[:k]) / total


def _downsample(xs: np.ndarray, ps: np.ndarray, max_points: int):
    """Evenly thin a CDF to ``max_points`` (keeps first and last points)."""
    n = len(xs)
    if n <= max_points:
        idxs = range(n)
    else:
        step = (n - 1) / (max_points - 1)
        idxs = sorted({int(round(i * step)) for i in range(max_points)})
    for i in idxs:
        yield float(xs[i]), float(ps[i])
