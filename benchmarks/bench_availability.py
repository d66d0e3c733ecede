"""Extension: semantic search under peer churn.

The availability studies the paper cites (e.g. the Overnet crawl) show
significant peer turnover; a practical server-less design must tolerate
offline neighbours.  This bench sweeps per-request peer availability and
asserts graceful degradation: the hit rate falls roughly with the online
probability, it does not collapse.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.extension_experiments import run_availability_sweep
from repro.runtime import RunContext


def test_availability_sweep(benchmark):
    result = run_once(benchmark, run_availability_sweep, RunContext(scale=Scale.DEFAULT))
    record(result)
    # Monotone degradation...
    assert (
        result.metric("hit@1")
        >= result.metric("hit@0.7")
        >= result.metric("hit@0.3")
    )
    # ...but graceful: at 50% availability more than half the full-
    # availability hit rate survives.
    assert result.metric("hit@0.5") > 0.5 * result.metric("hit@1")
    # Only a bounded share of requests become truly unresolvable.
    assert result.metric("unresolvable@0.5") < 0.6
