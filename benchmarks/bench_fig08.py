"""Figure 8: spread of the 6 most popular files over time.

Paper: popularity jumps suddenly and decays slowly; the most replicated
file peaks at under 0.7% of clients (372 of 53,476).  At reproduction
scale (27x fewer clients) the peak spread is proportionally larger, but
must remain a small fraction and show the rise-then-decay shape.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure08
from repro.runtime import RunContext


def test_figure08(benchmark):
    result = run_once(benchmark, run_figure08, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("max_spread_fraction_any_file") < 0.15
    shaped = 0
    for series in result.series:
        if len(series) < 5:
            continue
        peak = series.ys.index(max(series.ys))
        if peak > 0 and series.ys[peak] > series.ys[0] and series.ys[-1] < series.ys[peak]:
            shaped += 1
    assert shaped >= 3
