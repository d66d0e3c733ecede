"""Table 3: combined influence of generous uploaders and popular files.

Paper row "LRU": 28/34/41% at 5/10/20 neighbours; removing uploaders
lowers the hit ratio, removing popular files raises it - the two act in
opposite directions and roughly cancel when combined.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_table3
from repro.runtime import RunContext


def test_table3(benchmark):
    result = run_once(benchmark, run_table3, RunContext(scale=Scale.DEFAULT))
    record(result)
    base5 = result.metric("base@5")
    assert 0.15 < base5 < 0.45
    # Removing uploaders lowers the hit ratio (clear at 10/20 neighbours
    # and at the 15% level; the 5%-at-5-neighbours cell is within noise).
    assert result.metric("no_top_5_uploaders@10") < result.metric("base@10")
    assert result.metric("no_top_15_uploaders@5") < base5
    # Removing popular files raises it.
    assert result.metric("no_5_popular_files@5") > base5
    assert result.metric("no_15_popular_files@5") > result.metric("no_5_popular_files@5") - 0.02
    # Combined 5% ablations sit between the two pure effects.
    both5 = result.metric("no_both_5@5")
    assert result.metric("no_top_5_uploaders@5") - 0.05 <= both5
    assert both5 <= result.metric("no_5_popular_files@5") + 0.05
    # NOTE: the 15% combined row collapses to ~0 requests at reproduction
    # scale (see EXPERIMENTS.md) and is reported but not asserted.
