"""Figure 19: LRU hit rate without the most generous uploaders.

Paper: removing the top 5-15% uploaders costs 10-20 points, yet > 30%
hit rate survives at 20 neighbours - semantic clustering is not an
artefact of a few generous peers.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure19
from repro.runtime import RunContext


def test_figure19(benchmark):
    result = run_once(benchmark, run_figure19, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("minus15@20") < result.metric("all@20")
    assert result.metric("minus15@20") > 0.12
