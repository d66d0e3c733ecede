"""Robustness: sensitivity to the interest-loyalty parameter.

The whole reproduction hinges on one planted parameter — the probability
that a peer's next file comes from a subscribed interest category.  This
bench sweeps it and asserts the headline quantity (Figure 21's semantic
share) responds monotonically and does not balance on a knife-edge.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.extension_experiments import run_loyalty_sensitivity
from repro.runtime import RunContext


def test_loyalty_sensitivity(benchmark):
    result = run_once(benchmark, run_loyalty_sensitivity, RunContext(scale=Scale.DEFAULT))
    record(result)
    shares = [
        result.metric("share_at_0_5"),
        result.metric("share_at_0_7"),
        result.metric("share_at_0_9"),
    ]
    # Monotone in loyalty...
    assert shares[0] < shares[1] < shares[2]
    # ...and already meaningful at 0.7 (no knife-edge at the calibrated 0.9).
    assert shares[1] > 0.05
