"""Figure 1: clients and shared files scanned per day.

Paper: daily scanned clients decline from 65k to 35k over the trace (a
crawler-bandwidth artifact).  The reproduction's crawler capacity decays
the same way, so the per-day client series must decline by a similar
ratio (35/65 ~ 0.54) while files-per-day stays of the same order.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure01
from repro.runtime import RunContext


def test_figure01(benchmark):
    result = run_once(benchmark, run_figure01, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert 0.3 < result.metric("decline_ratio") < 0.85
    assert result.metric("clients_first_day") > result.metric("clients_last_day")
