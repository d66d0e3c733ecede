"""Figure 21: hit rate vs number of swappings on the randomized trace.

Paper: LRU-10 hit rate falls from 35% on the real trace to 5% once the
trace is fully randomized; the ~30-point gap is attributable only to
genuine semantic proximity (generosity and popularity are preserved by
the randomization).
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure21
from repro.runtime import RunContext


def test_figure21(benchmark):
    result = run_once(benchmark, run_figure21, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert 0.25 < result.metric("hit_rate_original") < 0.60
    assert result.metric("hit_rate_fully_randomized") < 0.5 * result.metric(
        "hit_rate_original"
    )
    assert result.metric("semantic_share") > 0.15
    series = result.series[0]
    # decreasing trend along the swap schedule
    assert series.ys[-1] < series.ys[0]
    assert min(series.ys) >= 0.0
