"""Extension: semantic links in the live eDonkey client.

The paper's conclusion announces this exact system ("implementation of
semantic links in an eDonkey client, MLdonkey").  The bench runs a
protocol-level network of semantic clients for ten days and measures the
server-avoidance rate — the share of lookups the first tier never sees.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.live_semantic import run_live_semantic
from repro.runtime import RunContext


def test_live_semantic_client(benchmark):
    result = run_once(
        benchmark,
        run_live_semantic,
        RunContext(scale=Scale.SMALL),
        days=10,
        num_clients=200,
    )
    record(result)
    assert result.metric("lookups") > 500
    # A meaningful share of lookups bypass the server entirely.  The rate
    # is lower than Section 5's simulated hit rates because live requests
    # include files nobody (reachable) shares yet — the protocol-level
    # realism the statistical simulation abstracts away.
    assert result.metric("overall_server_avoidance") > 0.08
    # The lists warm up: the best day far exceeds the cold first day.
    assert result.metric("peak_day_avoidance") > 2 * result.metric(
        "first_day_avoidance"
    )
