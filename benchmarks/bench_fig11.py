"""Figure 11: CDF of the fraction of sources in the home country.

Paper: geographic clustering is much stronger for unpopular files - e.g.
50% of files with average popularity >= 20 have all sources in one
country, vs only 10% for popularity >= 50.  The reproduction asserts the
ordering: lower popularity class => more home-concentrated.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure11
from repro.runtime import RunContext


def test_figure11(benchmark):
    result = run_once(benchmark, run_figure11, RunContext(scale=Scale.DEFAULT))
    record(result)
    rare = result.metric("median_home_pct_p0.1")
    popular = result.metrics.get("median_home_pct_p1.2")
    assert rare > 50.0
    if popular is not None:
        assert rare >= popular
    assert result.metric("all_home_fraction_p0.1") > 0.3
