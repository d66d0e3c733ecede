"""Figure 14: clustering correlation, real trace vs randomized trace.

Paper: over all files the two traces look alike (popular files mask the
interest structure), but at popularity 3 and 5 the real trace clusters
far more - the definitive evidence of genuine interest-based clustering.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure14
from repro.runtime import RunContext


def test_figure14(benchmark):
    result = run_once(benchmark, run_figure14, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("pop3_trace_p1") > result.metric("pop3_random_p1") + 5.0
    assert result.metric("pop5_trace_p1") > result.metric("pop5_random_p1") + 5.0
    all_gap = abs(result.metric("all_trace_p1") - result.metric("all_random_p1"))
    assert all_gap < 15.0
