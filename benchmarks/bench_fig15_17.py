"""Figures 15-17: evolution of pairwise cache overlap over time.

Paper: pairs starting with 1-10 common files decay smoothly; pairs with
large initial overlap hold plateaux for weeks - interest-based proximity
persists even though caches churn ~5 files/day.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure15_17
from repro.runtime import RunContext


def test_figure15_17(benchmark):
    result = run_once(benchmark, run_figure15_17, RunContext(scale=Scale.DEFAULT))
    record(result)
    high = result.metric("high_overlap_mean_retention")
    assert high > 0.35
    assert len(result.series) >= 5
