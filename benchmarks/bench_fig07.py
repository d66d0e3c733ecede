"""Figure 7: files and disk space shared per client.

Paper: ~80% free-riders; 80% of the remaining clients share < 100 files;
fewer than 10% of sharers hold < 1GB; the top 15% of peers offer 75% of
the files.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure07
from repro.runtime import RunContext


def test_figure07(benchmark):
    result = run_once(benchmark, run_figure07, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert 0.6 < result.metric("free_rider_fraction") < 0.85
    assert 0.6 < result.metric("sharers_under_100_files") < 0.95
    assert result.metric("sharers_under_1gb") < 0.5
    assert result.metric("top15pct_share_of_files") > 0.45
