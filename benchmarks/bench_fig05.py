"""Figure 5: file replication against rank (log-log), several days.

Paper: after a small flat head, the rank/replication curve follows a
linear trend on a log-log plot, consistently across days.  The bench fits
a power-law slope per day and asserts it is positive, stable, and fits
well.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure05
from repro.util.zipf import fit_zipf_slope
from repro.runtime import RunContext


def test_figure05(benchmark):
    result = run_once(benchmark, run_figure05, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("days_plotted") >= 4
    assert 0.2 < result.metric("mean_zipf_slope") < 1.5
    # every day individually fits a decaying power law
    for series in result.series:
        slope, r2 = fit_zipf_slope(series.xs, series.ys, skip_head=5)
        assert slope > 0.15
        assert r2 > 0.7
