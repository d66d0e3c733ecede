"""Figure 3: files and non-empty caches per day after extrapolation.

Paper: the dynamic analyses use days with >= 1M files in >= 7k non-empty
caches.  The reproduction must provide a comparable plateau (scaled) on
every analysis day.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure03
from repro.runtime import RunContext


def test_figure03(benchmark):
    result = run_once(benchmark, run_figure03, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("min_daily_files") > 1000
    assert result.metric("min_daily_non_empty_caches") > 30
