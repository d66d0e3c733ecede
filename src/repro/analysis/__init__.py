"""Analyses reproducing the paper's figures and tables.

Each function takes a :class:`~repro.trace.model.Trace` or
:class:`~repro.trace.model.StaticTrace` and returns plain data —
:class:`~repro.util.cdf.Series` lists, tables of rows, or small dataclasses
— that the experiment layer renders and the benchmarks assert on.  The
day-indexed popularity and overlap analyses take any
:class:`~repro.trace.model.DaySource` instead: the same code runs over an
in-memory ``Trace`` or an on-disk :class:`~repro.trace.store.TraceStore`,
one day at a time.

Module map (see DESIGN.md for the full per-experiment index):

- :mod:`repro.analysis.contribution` — Figures 6, 7 (sizes, peer contribution);
- :mod:`repro.analysis.popularity` — Figures 5, 8, 9, 10 (replication and
  popularity dynamics);
- :mod:`repro.analysis.geographic` — Figure 4, Table 2, Figures 11, 12;
- :mod:`repro.analysis.semantic` — Figures 13, 14, 15, 16, 17 (clustering
  correlation and overlap dynamics).
"""

from repro.analysis.contribution import (
    contribution_cdfs,
    size_cdf_by_popularity,
)
from repro.analysis.geographic import (
    country_histogram,
    home_locality_cdf,
    top_as_table,
)
from repro.analysis.popularity import (
    file_spread,
    rank_evolution,
    rank_replication,
)
from repro.analysis.semantic import (
    clustering_correlation,
    overlap_evolution,
    pair_overlaps,
)

__all__ = [
    "clustering_correlation",
    "contribution_cdfs",
    "country_histogram",
    "file_spread",
    "home_locality_cdf",
    "overlap_evolution",
    "pair_overlaps",
    "rank_evolution",
    "rank_replication",
    "size_cdf_by_popularity",
    "top_as_table",
]
