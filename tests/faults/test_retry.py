"""RetryPolicy backoff schedule."""

import pytest

from repro.faults import RetryPolicy


def delays(policy):
    return [policy.delay(i) for i in range(1, policy.max_retries + 1)]


class TestSchedule:
    def test_exponential_growth(self):
        policy = RetryPolicy(max_retries=4, base_delay=1.0, multiplier=2.0)
        assert delays(policy) == [1.0, 2.0, 4.0, 8.0]

    def test_cap(self):
        policy = RetryPolicy(
            max_retries=6, base_delay=1.0, multiplier=3.0, max_delay=10.0
        )
        assert delays(policy) == [1.0, 3.0, 9.0, 10.0, 10.0, 10.0]

    def test_constant_backoff_with_unit_multiplier(self):
        policy = RetryPolicy(max_retries=3, base_delay=2.0, multiplier=1.0)
        assert delays(policy) == [2.0, 2.0, 2.0]

    def test_zero_retries_allowed(self):
        assert delays(RetryPolicy(max_retries=0)) == []


class TestValidation:
    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_shrinking_backoff_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestBudgetExhaustionMidDay:
    def test_retries_stop_exactly_at_the_browse_budget(self):
        """With every browse lost and retries enabled, the day ends when
        the browse budget runs out — even mid-retry-loop — and the
        attempt count equals the budget exactly (never overdrawn)."""
        import dataclasses

        from repro.edonkey.crawler import Crawler, CrawlerConfig
        from repro.edonkey.network import NetworkConfig, build_network
        from repro.faults import FaultConfig
        from repro.trace.model import Trace
        from repro.workload.config import WorkloadConfig

        workload = dataclasses.replace(
            WorkloadConfig().small(),
            num_clients=30,
            num_files=400,
            days=2,
            mainstream_pool_size=30,
        )
        network = build_network(
            NetworkConfig(
                workload=workload, faults=FaultConfig(loss_rate=1.0)
            ),
            seed=8,
        )
        budget = 7  # far fewer attempts than clients * (1 + retries)
        crawler = Crawler(
            network,
            CrawlerConfig(
                days=1,
                browse_budget_start=budget,
                browse_budget_end=budget,
                retry=RetryPolicy(max_retries=5),
            ),
            seed=8,
        )
        # The total loss also blinds the discovery sweep, so hand the
        # crawler a reachable set and drive one browsing day directly.
        crawler.reachable_users = set(network.clients) - network.offline
        assert len(crawler.reachable_users) > budget // 6
        successes = crawler.browse_all(Trace(), day=0, budget=budget)
        assert successes == 0
        assert crawler.stats.browse_attempts == budget
        assert crawler.stats.browse_succeeded == 0
        # The budget ran dry mid-retry-loop: fewer retries were spent
        # than the policy would have allowed for the clients attempted.
        assert crawler.stats.browse_retries < budget
        assert crawler.stats.browse_retries > 0
