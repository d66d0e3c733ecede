"""Figure 22: distribution of query load among peers (LRU-5).

Paper: with all uploaders the heaviest peer answers 13,433 messages vs a
mean of 187; removing 10% of top uploaders cuts the max to 710 while the
mean only halves - load flattens much faster than capacity is lost.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure22
from repro.runtime import RunContext


def test_figure22(benchmark):
    result = run_once(benchmark, run_figure22, RunContext(scale=Scale.DEFAULT))
    record(result)
    # skew: the heaviest peer carries far more than the mean
    assert result.metric("max_load_all") > 5 * result.metric("mean_load_all")
    # removing top uploaders flattens the maximum faster than the mean
    max_drop = result.metric("max_load_all") / max(result.metric("max_load_minus10"), 1.0)
    mean_drop = result.metric("mean_load_all") / max(result.metric("mean_load_minus10"), 1e-9)
    assert max_drop > mean_drop
    # total requests shrink when uploaders are removed
    assert result.metric("requests_minus15") < result.metric("requests_all")
