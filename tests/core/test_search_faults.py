"""Probe loss and dead-neighbour eviction in the search simulator."""

import pytest

from repro.core.search import SearchConfig, SearchSimulator, simulate_search
from tests.conftest import build_static


def clique(num_clients=8, num_files=24):
    return build_static(
        {i: [f"f{j}" for j in range(num_files)] for i in range(num_clients)}
    )


class TestProbeLoss:
    def test_certain_loss_kills_every_hit(self):
        result = simulate_search(
            clique(), SearchConfig(list_size=3, probe_loss_rate=1.0, seed=0)
        )
        assert result.hit_rate == 0.0
        assert result.probes_lost > 0

    def test_zero_loss_matches_the_fault_free_run(self):
        clean = simulate_search(clique(), SearchConfig(list_size=3, seed=1))
        zeroed = simulate_search(
            clique(), SearchConfig(list_size=3, probe_loss_rate=0.0, seed=1)
        )
        assert zeroed.rates == clean.rates
        assert zeroed.probes_lost == 0

    def test_hit_rate_degrades_monotonically(self):
        rates = []
        for loss in (0.0, 0.1, 0.5, 0.9):
            result = simulate_search(
                clique(12, 30),
                SearchConfig(list_size=4, probe_loss_rate=loss, seed=2),
            )
            rates.append(result.hit_rate)
        for lighter, heavier in zip(rates, rates[1:]):
            assert heavier <= lighter + 0.02  # monotone within noise
        assert rates[-1] < rates[0]

    def test_deterministic(self):
        config = SearchConfig(list_size=3, probe_loss_rate=0.3, seed=4)
        first = simulate_search(clique(), config)
        second = simulate_search(clique(), config)
        assert first.rates == second.rates
        assert first.probes_lost == second.probes_lost
        assert first.evictions == second.evictions


class TestEviction:
    def test_dead_peers_evicted_under_churn(self):
        result = simulate_search(
            clique(12, 30),
            SearchConfig(
                list_size=4,
                availability=0.3,
                evict_dead=True,
                dead_after=2,
                seed=5,
            ),
        )
        assert result.evictions > 0

    def test_an_answer_clears_the_strikes(self):
        """Eviction takes ``dead_after`` unanswered probes in a row."""
        simulator = SearchSimulator(
            clique(),
            SearchConfig(
                list_size=3, availability=0.5, evict_dead=True, dead_after=2
            ),
        )
        strategy = simulator._strategy_for(0)
        strategy.record_upload(1)
        for up in (False, True, False):
            simulator._query_one_hop(0, 0, None, online=lambda _peer: up)
        assert 1 in strategy.ordered()
        simulator._query_one_hop(0, 0, None, online=lambda _peer: False)
        assert 1 not in strategy.ordered()
        assert simulator._evictions == 1

    def test_eviction_off_means_none(self):
        result = simulate_search(
            clique(12, 30),
            SearchConfig(list_size=4, availability=0.3, seed=5),
        )
        assert result.evictions == 0

    def test_eviction_under_loss_degrades_gracefully(self):
        """Loss makes eviction trigger-happy (a healthy neighbour can be
        unlucky twice in a row), but the lists keep re-learning uploaders
        so search stays useful rather than collapsing."""
        result = simulate_search(
            clique(12, 30),
            SearchConfig(
                list_size=4,
                probe_loss_rate=0.5,
                evict_dead=True,
                dead_after=2,
                seed=6,
            ),
        )
        assert result.evictions > 0
        assert result.hit_rate > 0.3


class TestValidation:
    def test_faults_are_one_hop_only(self):
        with pytest.raises(ValueError, match="one-hop"):
            SearchConfig(two_hop=True, probe_loss_rate=0.1)
        with pytest.raises(ValueError, match="one-hop"):
            SearchConfig(two_hop=True, evict_dead=True)

    def test_loss_rate_is_a_fraction(self):
        with pytest.raises(ValueError):
            SearchConfig(probe_loss_rate=1.5)

    def test_dead_after_positive(self):
        with pytest.raises(ValueError):
            SearchConfig(dead_after=0)
