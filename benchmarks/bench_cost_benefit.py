"""Capstone: search economics — hit rate vs message cost per mechanism.

The design implication behind the paper's title: among server-less
mechanisms, semantic neighbour lists dominate unstructured search by an
order of magnitude in hits per message.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.cost_benefit import run_cost_benefit
from repro.runtime import RunContext


def test_cost_benefit(benchmark):
    result = run_once(benchmark, run_cost_benefit, RunContext(scale=Scale.DEFAULT))
    record(result)
    # Semantic search is an order of magnitude more message-efficient
    # than flooding at both list sizes.
    lru5_eff = result.metric("lru5_1hop_hit") / result.metric("lru5_1hop_msgs")
    flood_eff = result.metric("flooding_hit") / result.metric("flooding_msgs")
    assert lru5_eff > 10 * flood_eff
    # Two-hop buys hit rate at a message premium, but stays far cheaper
    # than flooding.
    assert result.metric("lru20_2hop_hit") > result.metric("lru20_1hop_hit")
    assert result.metric("lru20_2hop_msgs") < 0.5 * result.metric("flooding_msgs")
