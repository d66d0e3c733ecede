"""Figure 12: CDF of the fraction of sources in the home AS.

Paper: same ordering as Figure 11 at autonomous-system granularity, with
weaker concentration (an AS is smaller than a country).
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure11, run_figure12
from repro.runtime import RunContext


def test_figure12(benchmark):
    result = run_once(benchmark, run_figure12, RunContext(scale=Scale.DEFAULT))
    record(result)
    rare_as = result.metric("median_home_pct_p0.1")
    popular_as = result.metrics.get("median_home_pct_p1.2")
    if popular_as is not None:
        assert rare_as >= popular_as
    # AS-level concentration weaker than country-level.
    country = run_figure11(RunContext(scale=Scale.DEFAULT))
    assert rare_as <= country.metric("median_home_pct_p0.1") + 1e-9
