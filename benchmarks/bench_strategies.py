"""Extension: neighbour-strategy shoot-out, overall vs rare requests.

Section 5.3.2 notes that the popularity algorithm of [30] "solves" the
rare-file list-contamination issue by implicitly inferring the popularity
of requested files.  This bench measures all four strategies inside the
full mixed workload, with a separate hit-rate for requests targeting
files with <= 3 replicas.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.extension_experiments import run_strategy_comparison
from repro.runtime import RunContext


def test_strategy_comparison(benchmark):
    result = run_once(benchmark, run_strategy_comparison, RunContext(scale=Scale.DEFAULT))
    record(result)
    # Popularity weighting leads on rare requests...
    assert result.metric("popularity_rare") >= result.metric("lru_rare")
    # ...scored strategies beat plain LRU overall...
    assert result.metric("history_overall") >= result.metric("lru_overall") - 0.02
    # ...and the random benchmark collapses on rare files.
    assert result.metric("random_rare") < 0.3 * result.metric("lru_rare")
