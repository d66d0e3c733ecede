"""Extension: exchange-graph structure of a search run.

Section 6 cites server-log analyses reporting ~20% bidirectional edges
in the eDonkey exchange graph and cliques of 100+ clients.  This bench
records the exchange graph produced by the semantic-search simulation at
DEFAULT scale and asserts the same structural signatures (scaled).
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.extension_experiments import run_exchange_graph
from repro.runtime import RunContext


def test_exchange_graph(benchmark):
    result = run_once(benchmark, run_exchange_graph, RunContext(scale=Scale.DEFAULT))
    record(result)
    # Reciprocity in the band the server logs report (~20%, +-15 points).
    assert 0.05 < result.metric("reciprocity") < 0.5
    # Generous uploaders dominate out-degrees.
    assert result.metric("degree_skew") > 2.0
    # Dense semantic communities exist (scaled analogue of the cliques).
    assert result.metric("largest_core") >= 8
    assert result.metric("clustering") > 0.05
