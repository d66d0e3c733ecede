"""Figure 23: two-hop semantic search.

Paper: querying neighbours' neighbours raises the hit rate to over 55%
at 20 neighbours (vs 41% one-hop); the transitivity of the semantic
relation survives removing the most generous uploaders.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure23
from repro.runtime import RunContext


def test_figure23(benchmark):
    result = run_once(benchmark, run_figure23, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("two_hop@20") > result.metric("one_hop@20") + 0.05
    assert result.metric("two_hop@20") > 0.45
    assert result.metric("two_hop@5") > 0.2
    # two-hop minus generous uploaders still beats nothing
    without = result.series_named("2 hops, without top 15%")
    assert without.y_at(20) > 10.0  # percent
