"""Figures 9 and 10: evolution of the ranks of top-5 files.

Paper: the ranks of popular files remain quite stable over time even as
replica counts decay; early-trace tops drift down gradually.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure09_10
from repro.runtime import RunContext


def test_figure09_10(benchmark):
    result = run_once(benchmark, run_figure09_10, RunContext(scale=Scale.DEFAULT))
    record(result)
    # Top files stay in (roughly) the upper ranks: mean final rank far
    # above the tail of a ~20k-file catalogue.
    assert result.metric("mid_top5_mean_final_rank") < 500
    assert len(result.series) == 10
