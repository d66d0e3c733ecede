"""Figure 18: semantic-search hit rate vs number of neighbours.

Paper: at 20 neighbours LRU reaches 41% and History 47%; randomly chosen
neighbour lists do far worse at every size.  The reproduction asserts the
band and the strategy ordering.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure18
from repro.runtime import RunContext


def test_figure18(benchmark):
    result = run_once(benchmark, run_figure18, RunContext(scale=Scale.DEFAULT))
    record(result)
    lru20 = result.metric("lru@20")
    assert 0.30 < lru20 < 0.65
    assert result.metric("history@20") > 0.9 * lru20
    assert result.metric("random@20") < 0.5 * lru20
    # hit rate grows with list size
    lru = result.series_named("LRU")
    assert lru.y_at(200) > lru.y_at(5)
