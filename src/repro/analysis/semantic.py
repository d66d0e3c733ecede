"""Semantic clustering analyses (Figures 13-17).

The *clustering correlation* (Figure 13) is the probability that two clients
with at least ``n`` files in common share at least one more — exactly the
probability that a peer who answered ``n`` of my queries will answer the
next one, which is what makes semantic neighbour lists work.

The *overlap evolution* analyses (Figures 15-17) group client pairs by their
cache overlap on the first analysis day and track the mean overlap of each
group over time; like the popularity analyses they run over a day source
(an in-memory ``Trace`` or an on-disk ``TraceStore``, see
:mod:`repro.analysis.popularity`).

The pair-counting entry points accept either a plain cache map or a
:class:`~repro.trace.compiled.CompiledTrace`.  Both forms count pairs by
C-level ``Counter`` accumulation over ``combinations`` of each file's
sorted sharers — the compiled form over its interned inverted index —
and produce the same dict (pinned by the digests in ``tests/golden/``).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.trace.compiled import CompiledTrace
from repro.trace.model import ClientId, DaySource, FileId
from repro.util.cdf import Series
from repro.util.rng import RngStream

FileFilter = Callable[[FileId], bool]
CacheMap = Mapping[ClientId, FrozenSet[FileId]]
Caches = Union[CacheMap, CompiledTrace]


def pair_overlaps(
    caches: Caches,
    file_filter: Optional[FileFilter] = None,
) -> Dict[Tuple[ClientId, ClientId], int]:
    """Number of common (qualifying) files for every overlapping pair.

    Built from the file-to-sharers inverted index, so only pairs with at
    least one common file appear.  ``caches`` may be a
    :class:`~repro.trace.compiled.CompiledTrace` (fastest — its inverted
    index is prebuilt) or a plain cache map.
    """
    if isinstance(caches, CompiledTrace):
        mask = None
        if file_filter is not None:
            mask = [file_filter(fid) for fid in caches.file_ids]
        return caches.pair_overlaps(mask)

    sharers_of: Dict[FileId, List[ClientId]] = defaultdict(list)
    for client_id, cache in caches.items():
        for fid in cache:
            if file_filter is None or file_filter(fid):
                sharers_of[fid].append(client_id)

    # The O(s^2) pair enumeration runs in C; sorted sharers make every
    # pair come out in canonical (low, high) order.
    overlaps: Counter = Counter()
    for sharers in sharers_of.values():
        if len(sharers) > 1:
            overlaps.update(combinations(sorted(sharers), 2))
    return dict(overlaps)


def clustering_correlation(
    caches: Caches,
    file_filter: Optional[FileFilter] = None,
    max_common: int = 200,
    min_pairs: int = 5,
    name: str = "clustering",
) -> Series:
    """P(>= n+1 common files | >= n common files), per n (Figure 13).

    The y value at x = n is the percentage of pairs with at least ``n``
    common files that have at least ``n + 1``.  Points supported by fewer
    than ``min_pairs`` pairs are dropped (they are pure noise).
    ``caches`` may be a cache map or a compiled trace (see
    :func:`pair_overlaps`).
    """
    overlaps = pair_overlaps(caches, file_filter=file_filter)
    histogram: Counter = Counter(overlaps.values())
    if not histogram:
        return Series(name=name)
    top = min(max(histogram), max_common)
    # pairs_ge[n] = number of pairs with overlap >= n.
    pairs_ge: Dict[int, int] = {}
    running = 0
    for n in range(max(histogram), 0, -1):
        running += histogram.get(n, 0)
        pairs_ge[n] = running
    series = Series(name=name)
    for n in range(1, top + 1):
        ge_n = pairs_ge.get(n, 0)
        ge_n1 = pairs_ge.get(n + 1, 0)
        if ge_n < min_pairs:
            break
        series.append(n, 100.0 * ge_n1 / ge_n)
    return series


def popularity_band_filter(
    caches: Caches,
    lo: int,
    hi: int,
    kind_of: Optional[Mapping[FileId, str]] = None,
    kind: Optional[str] = None,
) -> FileFilter:
    """Build a filter keeping files whose replica count is in ``[lo, hi]``,
    optionally restricted to one content kind (e.g. ``audio``).

    Accepts a cache map or a compiled trace (whose precomputed replica
    counts are used directly)."""
    if isinstance(caches, CompiledTrace):
        counts = caches.replica_counts()
    else:
        counts = Counter()
        for cache in caches.values():
            counts.update(cache)

    def accept(fid: FileId) -> bool:
        if not lo <= counts[fid] <= hi:
            return False
        if kind is not None:
            if kind_of is None:
                raise ValueError("kind filter requires kind_of mapping")
            if kind_of.get(fid) != kind:
                return False
        return True

    return accept


def overlap_evolution(
    source: DaySource,
    first_day: Optional[int] = None,
    overlap_levels: Optional[Sequence[int]] = None,
    max_pairs_per_level: int = 500,
    seed: int = 0,
) -> List[Series]:
    """Mean overlap over time for pair groups fixed on the first day
    (Figures 15-17).

    Pairs are grouped by their exact overlap on ``first_day``; each group's
    series reports, per day, the mean overlap of the group's pairs that were
    both observed that day.  Groups larger than ``max_pairs_per_level``
    are subsampled for tractability.  Series are named
    ``"<k> Common Files, <n> Pairs"`` with ``n`` the *full* group size, as
    in the paper's legends.

    ``source`` is a ``Trace`` or a ``TraceStore``.  Only the first day's
    pair enumeration and, per follow day, that day's caches are held.
    """
    days = source.days()
    if not days:
        raise ValueError("trace has no days")
    if first_day is None:
        first_day = days[0]
    if first_day not in days:
        raise ValueError(f"first_day {first_day} not in trace")

    base = source.snapshots_on(first_day)
    overlaps = pair_overlaps({c: f for c, f in base.items() if f})
    del base
    groups: Dict[int, List[Tuple[ClientId, ClientId]]] = defaultdict(list)
    for pair, n in overlaps.items():
        groups[n].append(pair)
    del overlaps

    if overlap_levels is None:
        overlap_levels = sorted(groups)
    rng = RngStream(seed, "overlap-evolution")

    selected: List[Tuple[List[Tuple[ClientId, ClientId]], Series]] = []
    for level in overlap_levels:
        pairs = groups.get(level, [])
        if not pairs:
            continue
        full_size = len(pairs)
        if full_size > max_pairs_per_level:
            pairs = rng.sample_without_replacement(sorted(pairs), max_pairs_per_level)
        selected.append(
            (pairs, Series(name=f"{level} Common Files, {full_size} Pairs"))
        )
    del groups

    for day in days:
        if day < first_day:
            continue
        snaps = source.snapshots_on(day)
        for pairs, series in selected:
            values = [
                len(snaps[a] & snaps[b])
                for a, b in pairs
                if a in snaps and b in snaps
            ]
            if values:
                series.append(day, sum(values) / len(values))
    return [series for _pairs, series in selected]


def mean_overlap_decay(series: Series) -> float:
    """Final mean overlap as a fraction of the initial one (decay metric).

    1.0 means perfectly sustained overlap, 0.0 means fully dissipated.
    """
    if len(series) < 2:
        raise ValueError("need at least two points")
    first, last = series.ys[0], series.ys[-1]
    if first == 0:
        return 0.0
    return last / first
