"""Tests for the peer-availability (churn) and rare-tracking extensions
of the search simulator."""

import pytest

from repro.core.search import SearchConfig, simulate_search
from tests.conftest import build_static


class TestConfig:
    def test_availability_validated(self):
        with pytest.raises(ValueError):
            SearchConfig(availability=1.5)

    def test_two_hop_with_churn_rejected(self):
        with pytest.raises(ValueError, match="one-hop"):
            SearchConfig(availability=0.5, two_hop=True)

    def test_full_availability_is_default(self):
        assert SearchConfig().availability == 1.0


class TestChurnSemantics:
    def clique(self, n=6, files=12):
        return build_static({i: [f"f{j}" for j in range(files)] for i in range(n)})

    def test_zero_availability_resolves_nothing(self):
        result = simulate_search(
            self.clique(), SearchConfig(list_size=3, availability=0.0, seed=1)
        )
        assert result.rates.requests == 0
        assert result.unresolvable > 0

    def test_full_availability_no_unresolvable(self):
        result = simulate_search(
            self.clique(), SearchConfig(list_size=3, availability=1.0, seed=1)
        )
        assert result.unresolvable == 0

    def test_accounting_covers_all_replicas(self):
        trace = self.clique()
        result = simulate_search(
            trace, SearchConfig(list_size=3, availability=0.5, seed=2)
        )
        assert (
            result.rates.contributions
            + result.rates.requests
            + result.unresolvable
            == trace.total_replicas()
        )

    def test_hit_rate_degrades_with_availability(self, small_static_trace):
        rates = []
        for availability in (1.0, 0.6, 0.2):
            result = simulate_search(
                small_static_trace,
                SearchConfig(
                    list_size=10,
                    availability=availability,
                    track_load=False,
                    seed=3,
                ),
            )
            rates.append(result.hit_rate)
        assert rates[0] >= rates[1] >= rates[2]

    def test_deterministic_under_churn(self, small_static_trace):
        config = SearchConfig(list_size=5, availability=0.7, track_load=False, seed=4)
        a = simulate_search(small_static_trace, config)
        b = simulate_search(small_static_trace, config)
        assert a.rates.hits == b.rates.hits
        assert a.unresolvable == b.unresolvable


class TestRareTracking:
    def test_rare_rates_absent_by_default(self, small_static_trace):
        result = simulate_search(
            small_static_trace, SearchConfig(list_size=5, track_load=False, seed=5)
        )
        assert result.rare_rates is None

    def test_rare_requests_counted(self):
        # "hot" has 4 replicas, "cold" has 2.
        trace = build_static(
            {0: ["hot", "cold"], 1: ["hot", "cold"], 2: ["hot"], 3: ["hot"]}
        )
        result = simulate_search(
            trace,
            SearchConfig(list_size=3, rare_cutoff=2, track_load=False, seed=6),
        )
        assert result.rare_rates is not None
        # cold: 2 replicas -> 1 contribution + 1 request
        assert result.rare_rates.requests == 1
        assert result.rare_rates.requests < result.rates.requests

    def test_rare_subset_of_total(self, small_static_trace):
        result = simulate_search(
            small_static_trace,
            SearchConfig(list_size=10, rare_cutoff=3, track_load=False, seed=7),
        )
        assert result.rare_rates is not None
        assert result.rare_rates.requests <= result.rates.requests
        assert result.rare_rates.hits <= result.rates.hits


class TestExtensionExperiments:
    def test_strategy_comparison_small(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.extension_experiments import (
            run_strategy_comparison,
        )

        result = run_strategy_comparison(RunContext(scale=Scale.SMALL))
        assert result.metric("random_rare") < result.metric("lru_rare")
        assert result.metric("popularity_rare") > 0.0
        for strategy in ("lru", "history", "popularity", "random"):
            assert 0.0 <= result.metric(f"{strategy}_overall") <= 1.0

    def test_availability_sweep_small(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.extension_experiments import (
            run_availability_sweep,
        )

        result = run_availability_sweep(
            RunContext(scale=Scale.SMALL), availabilities=(1.0, 0.5)
        )
        assert result.metric("hit@1") >= result.metric("hit@0.5")
        assert 0.0 <= result.metric("unresolvable@0.5") <= 1.0


class TestLoyaltySensitivity:
    def test_small_scale_monotone(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.extension_experiments import (
            run_loyalty_sensitivity,
        )

        result = run_loyalty_sensitivity(
            RunContext(scale=Scale.SMALL), loyalties=(0.3, 0.9)
        )
        assert result.metric("hit_at_0_9") > result.metric("hit_at_0_3")
        assert result.metric("share_at_0_9") > result.metric("share_at_0_3")
