"""Section 3's flooding estimate and the unstructured-search baselines.

Paper: the most popular file is held by < 0.7% of peers, so a flooding
search contacts ~143 peers on average (1/spread).  At reproduction scale
the most popular file spreads further (fewer clients), so the analytic
contact count is proportionally smaller; the bench checks the analytic
estimate against measured flooding cost on the same trace.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.baseline_experiments import (
    run_flooding_estimate,
    run_mechanism_comparison,
)
from repro.runtime import RunContext


def test_flooding_estimate(benchmark):
    result = run_once(benchmark, run_flooding_estimate, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("max_spread") < 0.15
    assert result.metric("analytic_contacts") > 5
    assert result.metric("flooding_hit_rate") > 0.9
    assert result.metric("flooding_mean_contacts") > 3


def test_mechanism_comparison(benchmark):
    result = run_once(benchmark, run_mechanism_comparison, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("semantic_hit_rate") > 0.3
    # flooding finds files but at a much higher per-query message cost
    assert result.metric("flooding_mean_contacts") > 20
