"""Table 1: general characteristics of the full / filtered / extrapolated
traces.

Paper: 56 days, 1.16M clients (84% free-riders), 11M distinct files;
filtered 320k clients (70% free-riders); extrapolated 53k clients (74%).
At reproduction scale the absolute counts shrink ~500x; the free-riding
fractions and the full > filtered > extrapolated ordering must hold.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_table1
from repro.runtime import RunContext


def test_table1(benchmark):
    result = run_once(benchmark, run_table1, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert 0.65 < result.metric("full_free_rider_fraction") < 0.85
    assert (
        result.metric("full_clients")
        >= result.metric("filtered_clients")
        >= result.metric("extrapolated_clients")
    )
    assert result.metric("full_files") > 10_000
