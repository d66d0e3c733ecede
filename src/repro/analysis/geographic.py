"""Geographical clustering analyses (Figure 4, Table 2, Figures 11-12).

A file's *home country* (or home AS) is the one hosting the most of its
sources; Figures 11/12 plot, for several average-popularity classes, the
CDF of the fraction of a file's sources that live in its home — lower
curves mean stronger geographic concentration.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.trace.model import ClientId, Trace
from repro.util.cdf import Series, empirical_cdf


def country_histogram(trace: Trace) -> List[Tuple[str, int, float]]:
    """Clients per country, sorted by count (Figure 4).

    Returns ``(country, count, fraction)`` rows over all known clients.
    """
    counts: Counter = Counter(meta.country for meta in trace.clients.values())
    total = sum(counts.values())
    if total == 0:
        raise ValueError("trace has no clients")
    return [
        (country, count, count / total)
        for country, count in counts.most_common()
    ]


@dataclass(frozen=True)
class AsRow:
    """One row of Table 2."""

    asn: int
    global_share: float
    national_share: float
    country: str


def top_as_table(trace: Trace, k: int = 5) -> List[AsRow]:
    """The top ``k`` autonomous systems by hosted clients (Table 2)."""
    by_asn: Counter = Counter()
    by_country: Counter = Counter()
    asn_country: Dict[int, Counter] = defaultdict(Counter)
    for meta in trace.clients.values():
        by_asn[meta.asn] += 1
        by_country[meta.country] += 1
        asn_country[meta.asn][meta.country] += 1
    total = sum(by_asn.values())
    if total == 0:
        raise ValueError("trace has no clients")
    rows: List[AsRow] = []
    for asn, count in by_asn.most_common(k):
        country, in_country = asn_country[asn].most_common(1)[0]
        rows.append(
            AsRow(
                asn=asn,
                global_share=count / total,
                national_share=in_country / by_country[country],
                country=country,
            )
        )
    return rows


def top_as_concentration(trace: Trace, k: int = 5) -> float:
    """Fraction of clients hosted by the top ``k`` ASes (the paper: 54%)."""
    rows = top_as_table(trace, k)
    return sum(r.global_share for r in rows)


def _home_fraction(
    sources: Sequence[ClientId], locator: Callable[[ClientId], object]
) -> float:
    """Fraction of sources in the modal location."""
    locations = Counter(locator(c) for c in sources)
    return locations.most_common(1)[0][1] / len(sources)


def home_locality_cdf(
    trace: Trace,
    level: str = "country",
    popularity_thresholds: Sequence[float] = (1, 5, 10, 20, 50, 100),
    max_points: int = 120,
) -> List[Series]:
    """CDFs of the home-country (or home-AS) source fraction (Fig 11/12).

    For each threshold ``t``, the CDF is over files whose *average
    popularity* (distinct sources / days seen, Section 4.1) is >= ``t``.
    ``level`` is ``"country"`` or ``"as"``.  The x axis is the percentage
    of sources in the main location.
    """
    if level == "country":
        locator = lambda c: trace.clients[c].country  # noqa: E731
    elif level == "as":
        locator = lambda c: trace.clients[c].asn  # noqa: E731
    else:
        raise ValueError(f"level must be 'country' or 'as', got {level!r}")

    avg_pop = trace.average_popularity()
    # Distinct sources per file over the whole trace.
    sources_of: Dict[str, set] = defaultdict(set)
    for day in trace.days():
        for client_id, cache in trace.snapshots_on(day).items():
            for fid in cache:
                sources_of[fid].add(client_id)

    out: List[Series] = []
    for threshold in popularity_thresholds:
        fractions = [
            100.0 * _home_fraction(sorted(sources), locator)
            for fid, sources in sources_of.items()
            if avg_pop.get(fid, 0.0) >= threshold and len(sources) > 0
        ]
        series = Series(name=f"avg popularity >= {threshold:g}")
        if fractions:
            xs, ps = empirical_cdf(fractions)
            step = max(1, len(xs) // max_points)
            for i in range(0, len(xs), step):
                series.append(float(xs[i]), float(ps[i]))
            series.append(float(xs[-1]), float(ps[-1]))
        out.append(series)
    return out
