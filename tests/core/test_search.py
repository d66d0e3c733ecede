"""Tests for the trace-driven semantic-search simulator."""

import pytest

from repro.core.search import (
    SearchConfig,
    SearchSimulator,
    rank_files_by_popularity,
    rank_uploaders,
    remove_popular_files,
    remove_top_uploaders,
    simulate_search,
)
from tests.conftest import build_static


class TestAccounting:
    def test_contributions_plus_requests_cover_replicas(self):
        trace = build_static({0: ["a", "b"], 1: ["a", "c"], 2: ["a"]})
        result = simulate_search(trace, SearchConfig(list_size=2, seed=0))
        assert (
            result.rates.contributions + result.rates.requests
            == trace.total_replicas()
        )

    def test_one_contribution_per_distinct_file(self):
        trace = build_static({0: ["a", "b"], 1: ["a", "b"], 2: ["a"]})
        result = simulate_search(trace, SearchConfig(list_size=2, seed=0))
        assert result.rates.contributions == 2  # "a" and "b" enter once each

    def test_unique_files_never_generate_requests(self):
        trace = build_static({0: ["only0"], 1: ["only1"]})
        result = simulate_search(trace, SearchConfig(list_size=2, seed=0))
        assert result.rates.requests == 0
        assert result.hit_rate == 0.0

    def test_hits_bounded_by_requests(self):
        trace = build_static(
            {i: [f"f{j}" for j in range(6)] for i in range(6)}
        )
        result = simulate_search(trace, SearchConfig(list_size=3, seed=1))
        assert 0 <= result.rates.hits <= result.rates.requests
        assert 0.0 <= result.hit_rate <= 1.0


class TestHitSemantics:
    def test_clique_reaches_high_hit_rate(self):
        """Identical caches: after warm-up every query hits."""
        trace = build_static({i: [f"f{j}" for j in range(20)] for i in range(4)})
        result = simulate_search(trace, SearchConfig(list_size=3, seed=2))
        assert result.hit_rate > 0.7

    def test_disjoint_caches_never_hit(self):
        trace = build_static(
            {i: [f"c{i}-{j}" for j in range(10)] for i in range(5)}
        )
        result = simulate_search(trace, SearchConfig(list_size=5, seed=3))
        assert result.rates.requests == 0  # all files unique

    def test_deterministic(self):
        trace = build_static({i: [f"f{j}" for j in range(8)] for i in range(5)})
        a = simulate_search(trace, SearchConfig(list_size=3, seed=9))
        b = simulate_search(trace, SearchConfig(list_size=3, seed=9))
        assert a.rates.hits == b.rates.hits
        assert a.load.messages == b.load.messages

    def test_larger_lists_never_hurt(self, small_static_trace):
        small = simulate_search(
            small_static_trace, SearchConfig(list_size=2, track_load=False, seed=4)
        )
        large = simulate_search(
            small_static_trace, SearchConfig(list_size=50, track_load=False, seed=4)
        )
        assert large.hit_rate >= small.hit_rate

    def test_strategies_accepted(self, small_static_trace):
        for strategy in ("lru", "history", "random", "popularity"):
            result = simulate_search(
                small_static_trace,
                SearchConfig(list_size=5, strategy=strategy, track_load=False, seed=5),
            )
            assert 0.0 <= result.hit_rate <= 1.0

    def test_lru_beats_random(self, small_static_trace):
        lru = simulate_search(
            small_static_trace,
            SearchConfig(list_size=5, strategy="lru", track_load=False, seed=6),
        )
        rnd = simulate_search(
            small_static_trace,
            SearchConfig(list_size=5, strategy="random", track_load=False, seed=6),
        )
        assert lru.hit_rate > rnd.hit_rate


class TestTwoHop:
    def test_two_hop_at_least_one_hop(self, small_static_trace):
        one = simulate_search(
            small_static_trace,
            SearchConfig(list_size=5, two_hop=False, track_load=False, seed=7),
        )
        two = simulate_search(
            small_static_trace,
            SearchConfig(list_size=5, two_hop=True, track_load=False, seed=7),
        )
        assert two.hit_rate >= one.hit_rate
        assert two.rates.two_hop_hits > 0

    def test_two_hop_hit_accounting(self, small_static_trace):
        result = simulate_search(
            small_static_trace,
            SearchConfig(list_size=5, two_hop=True, track_load=False, seed=8),
        )
        assert (
            result.rates.one_hop_hits + result.rates.two_hop_hits
            == result.rates.hits
        )

    def test_load_tracking_never_changes_the_answer(self, small_static_trace):
        """Load accounting only counts probes: the same peers answer, so
        rates, rare-file rates and the exchange graph are equal."""
        tracked, untracked = (
            simulate_search(
                small_static_trace,
                SearchConfig(
                    list_size=5, two_hop=True, track_load=track_load,
                    rare_cutoff=3, track_exchanges=True, seed=11,
                ),
            )
            for track_load in (True, False)
        )
        assert tracked.load.total_messages > 0
        assert untracked.load.total_messages == 0
        assert tracked.rates == untracked.rates
        assert tracked.rare_rates == untracked.rare_rates
        assert tracked.exchanges == untracked.exchanges


class TestLoad:
    def test_messages_only_to_neighbours(self):
        trace = build_static({i: [f"f{j}" for j in range(6)] for i in range(4)})
        result = simulate_search(trace, SearchConfig(list_size=2, seed=10))
        assert result.load.total_messages > 0
        # free-riders never appear in lists -> never receive messages
        assert set(result.load.messages) <= set(trace.caches)

    def test_track_load_off(self):
        trace = build_static({i: [f"f{j}" for j in range(6)] for i in range(4)})
        result = simulate_search(
            trace, SearchConfig(list_size=2, track_load=False, seed=10)
        )
        assert result.load.total_messages == 0

    def test_free_riders_receive_no_queries(self, small_static_trace):
        result = simulate_search(
            small_static_trace, SearchConfig(list_size=5, seed=12)
        )
        free_riders = set(small_static_trace.free_riders())
        assert not (set(result.load.messages) & free_riders)


class TestAblations:
    def test_rank_uploaders_by_generosity(self):
        trace = build_static({0: ["a"], 1: ["a", "b", "c"], 2: ["a", "b"], 3: []})
        assert rank_uploaders(trace) == [1, 2, 0]

    def test_remove_top_uploaders(self):
        trace = build_static(
            {0: ["a"], 1: ["a", "b", "c", "d"], 2: ["a", "b"], 3: []}
        )
        ablated = remove_top_uploaders(trace, 1 / 3)
        assert set(ablated.caches) == {0, 2, 3}

    def test_remove_zero_fraction_is_noop(self):
        trace = build_static({0: ["a"], 1: ["b"]})
        assert set(remove_top_uploaders(trace, 0.0).caches) == {0, 1}

    def test_fraction_of_sharers_not_clients(self):
        """Percentages are taken over non-free-riders only."""
        caches = {i: [] for i in range(90)}
        caches.update({100 + i: [f"f{i}", "shared"] for i in range(10)})
        caches[100] = [f"x{j}" for j in range(50)]
        trace = build_static(caches)
        ablated = remove_top_uploaders(trace, 0.10)  # 10% of 10 sharers = 1
        assert 100 not in ablated.caches
        assert len(ablated.caches) == len(caches) - 1

    def test_rank_files_by_popularity(self):
        trace = build_static({0: ["a", "b"], 1: ["a"], 2: ["a", "b", "c"]})
        assert rank_files_by_popularity(trace) == ["a", "b", "c"]

    def test_remove_popular_files(self):
        trace = build_static({0: ["a", "b"], 1: ["a"], 2: ["a", "b", "c"]})
        ablated = remove_popular_files(trace, 1 / 3)
        assert "a" not in ablated.distinct_files()
        assert ablated.caches[0] == frozenset({"b"})

    def test_bad_fraction_rejected(self):
        trace = build_static({0: ["a"]})
        with pytest.raises(ValueError):
            remove_top_uploaders(trace, 1.5)
        with pytest.raises(ValueError):
            remove_popular_files(trace, -0.1)


class TestResultSummary:
    def test_summary_text(self, small_static_trace):
        result = simulate_search(
            small_static_trace,
            SearchConfig(list_size=5, two_hop=True, track_load=False, seed=13),
        )
        text = result.summary()
        assert "strategy=lru" in text
        assert "hit_rate=" in text
        assert "one_hop_rate=" in text
