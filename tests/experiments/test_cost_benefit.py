"""Tests for the cost-benefit experiment."""

from repro.experiments import Scale, run_figure23
from repro.runtime import RunContext
from repro.experiments.cost_benefit import run_cost_benefit


class TestCostBenefit:
    def test_runs_and_orders(self):
        result = run_cost_benefit(
            RunContext(scale=Scale.SMALL), list_sizes=(5,), num_baseline_queries=60
        )
        # two-hop never cheaper than one-hop in messages
        assert result.metric("lru5_2hop_msgs") >= result.metric("lru5_1hop_msgs")
        # two-hop never worse in hit rate
        assert result.metric("lru5_2hop_hit") >= result.metric("lru5_1hop_hit")
        # message costs bounded by the list budget
        assert result.metric("lru5_1hop_msgs") <= 5.0

    def test_semantic_more_efficient_than_flooding(self):
        result = run_cost_benefit(
            RunContext(scale=Scale.SMALL), list_sizes=(5,), num_baseline_queries=60
        )
        semantic = result.metric("lru5_1hop_hit") / result.metric("lru5_1hop_msgs")
        flooding = result.metric("flooding_hit") / result.metric("flooding_msgs")
        assert semantic > flooding

    def test_table_mentions_all_mechanisms(self):
        result = run_cost_benefit(
            RunContext(scale=Scale.SMALL), list_sizes=(5,), num_baseline_queries=40
        )
        for label in ("semantic", "flooding", "random walk", "central server"):
            assert label in result.table_text


def test_figure23_and_cost_benefit_share_one_two_hop_engine():
    """Figure 23 runs without load accounting and cost-benefit with it;
    both report the same two-hop hit rates."""
    ctx = RunContext(scale=Scale.TINY)
    figure = run_figure23(ctx, list_sizes=(5, 20), uploader_fractions=())
    costs = run_cost_benefit(ctx, list_sizes=(5, 20), num_baseline_queries=20)
    for list_size in (5, 20):
        assert figure.metric(f"two_hop@{list_size}") == costs.metric(
            f"lru{list_size}_2hop_hit"
        )
