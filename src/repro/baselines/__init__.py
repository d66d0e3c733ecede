"""Baseline search mechanisms the paper compares against (implicitly or
explicitly): Gnutella-style flooding over an unstructured overlay and
random walks.  The central server (eDonkey's own first tier) is the
protocol's :class:`~repro.edonkey.server.Server`.

Section 3 of the paper derives that with the most popular file held by
under 0.7% of peers, a flooding search must contact ~143 peers on average;
:mod:`repro.baselines.flooding` reproduces that estimate empirically, and
the benchmarks compare flooding/random-walk contact counts against semantic
neighbour lists.
"""

from repro.baselines.flooding import (
    FloodingConfig,
    FloodingSearch,
    build_overlay,
    expected_contacts,
)
from repro.baselines.random_walk import RandomWalkConfig, RandomWalkSearch

__all__ = [
    "FloodingConfig",
    "FloodingSearch",
    "RandomWalkConfig",
    "RandomWalkSearch",
    "build_overlay",
    "expected_contacts",
]
