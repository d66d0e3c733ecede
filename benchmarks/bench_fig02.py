"""Figure 2: new and total files discovered per day.

Paper: even after a month the crawler still discovers ~100k new files per
day.  The scaled reproduction must keep discovering new files on the last
day and show a monotone cumulative-total curve.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure02
from repro.runtime import RunContext


def test_figure02(benchmark):
    result = run_once(benchmark, run_figure02, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("new_files_last_day") > 0
    assert result.metric("new_files_per_client_per_day") > 0
