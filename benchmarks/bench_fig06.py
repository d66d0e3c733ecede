"""Figure 6: cumulative distribution of file sizes by popularity.

Paper: ~40% of all files are < 1MB and ~50% in the 1-10MB MP3 range, but
among files with popularity >= 5, ~45% are > 600MB (DIVX movies) - the
network specializes in large files.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure06
from repro.runtime import RunContext


def test_figure06(benchmark):
    result = run_once(benchmark, run_figure06, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert 0.25 < result.metric("p1_under_1mb") < 0.55
    assert result.metric("p5_over_600mb") > 0.2
    assert result.metric("p5_over_600mb") > 3 * result.metric("p1_over_600mb")
    assert result.metric("p10_over_600mb") >= result.metric("p5_over_600mb") - 0.05
