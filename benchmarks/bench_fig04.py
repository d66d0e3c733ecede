"""Figure 4: distribution of clients per country.

Paper: FR 29%, DE 28%, ES 16%, US 5% - a large majority in Europe.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure04
from repro.runtime import RunContext


def test_figure04(benchmark):
    result = run_once(benchmark, run_figure04, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("share_FR") == 0.29 or abs(result.metric("share_FR") - 0.29) < 0.04
    assert abs(result.metric("share_DE") - 0.28) < 0.04
    assert abs(result.metric("share_ES") - 0.16) < 0.04
    assert result.metric("share_US") < 0.10
