"""Ablation: sensitivity to the extrapolation gap-fill rule.

The paper fills unobserved days with the *intersection* of neighbouring
observations ("pessimistic").  This bench recomputes the clustering
headline under intersection / union / carry-forward fills and asserts
the results are insensitive — the conservative choice does not manufacture
the clustering findings.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.extension_experiments import run_extrapolation_ablation
from repro.runtime import RunContext


def test_extrapolation_ablation(benchmark):
    result = run_once(benchmark, run_extrapolation_ablation, RunContext(scale=Scale.DEFAULT))
    record(result)
    p_values = [
        result.metric("intersection_p1"),
        result.metric("union_p1"),
        result.metric("previous_p1"),
    ]
    assert all(p > 10.0 for p in p_values)
    spread = max(p_values) - min(p_values)
    assert spread < 10.0  # the rule choice moves the headline by < 10 pts
