"""Extension: graceful degradation under injected faults.

Sweeps message-loss rates {0, 1%, 5%, 20%} (faulted runs also crash a
server mid-crawl) and asserts the robustness contract: a fault-free run
is perfectly complete, and both trace completeness and the one-hop hit
rate decline smoothly — never collapse — as fault intensity rises.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.fault_experiments import run_fault_degradation
from repro.runtime import RunContext

LOSS_RATES = (0.0, 0.01, 0.05, 0.20)


def test_fault_degradation(benchmark):
    result = run_once(
        benchmark,
        run_fault_degradation,
        RunContext(scale=Scale.SMALL),
        loss_rates=LOSS_RATES,
        num_clients=100,
        days=5,
    )
    record(result)
    # Zero faults means zero degradation, by construction.
    assert result.metric("completeness@0") == 1.0
    # The crawler's retries keep the trace nearly complete through 5%
    # loss plus a mid-crawl server crash, and still useful at 20%.
    assert result.metric("completeness@0.05") > 0.9
    assert result.metric("completeness@0.2") > 0.5
    # Hit rate degrades monotonically (within noise) across the sweep...
    hit_rates = [result.metric(f"hit_rate@{r:g}") for r in LOSS_RATES]
    for lighter, heavier in zip(hit_rates, hit_rates[1:]):
        assert heavier <= lighter + 0.02
    # ...and losing 20% of probes costs far less than 20% of the hits:
    # eviction backfills the neighbour lists with reachable peers.
    assert hit_rates[-1] > 0.7 * hit_rates[0]
