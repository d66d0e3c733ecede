"""Tests for the two-tier overlay simulator and its experiment."""

import pytest

from repro.overlay.cyclon import CyclonConfig
from repro.overlay.simulator import OverlayConfig, SemanticOverlaySimulator
from repro.overlay.vicinity import VicinityConfig
from tests.conftest import build_static


def overlay_config(rounds=10, view_size=4, seed=0):
    return OverlayConfig(
        rounds=rounds,
        cyclon=CyclonConfig(view_size=8, shuffle_length=4),
        vicinity=VicinityConfig(view_size=view_size),
        seed=seed,
    )


def community_trace(num_communities=3, peers_per=6, files_per=10):
    caches = {}
    for community in range(num_communities):
        files = [f"c{community}-f{i}" for i in range(files_per)]
        for member in range(peers_per):
            caches[community * 100 + member] = files
    caches[999] = []  # a free-rider, must be excluded from the overlay
    return build_static(caches)


class TestConstruction:
    def test_free_riders_excluded(self):
        simulator = SemanticOverlaySimulator(community_trace(), overlay_config())
        assert 999 not in simulator.sharers

    def test_needs_sharers(self):
        trace = build_static({0: [], 1: []})
        with pytest.raises(ValueError):
            SemanticOverlaySimulator(trace, overlay_config())

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            OverlayConfig(rounds=0)


class TestRun:
    def test_hit_rate_improves_with_gossip(self):
        simulator = SemanticOverlaySimulator(
            community_trace(num_communities=5, peers_per=6), overlay_config(rounds=12)
        )
        result = simulator.run(measure_every=3)
        assert result.hit_rate_by_round.ys[-1] >= result.hit_rate_by_round.ys[0]
        assert result.final_hit_rate > 0.8  # identical caches inside a community

    def test_quality_converges_to_one_on_cliques(self):
        simulator = SemanticOverlaySimulator(
            community_trace(num_communities=4, peers_per=5),
            overlay_config(rounds=15, view_size=4),
        )
        result = simulator.run()
        assert result.final_quality > 0.9

    def test_underlying_overlay_connected(self):
        simulator = SemanticOverlaySimulator(community_trace(), overlay_config())
        result = simulator.run()
        assert result.connected

    def test_summary_text(self):
        simulator = SemanticOverlaySimulator(community_trace(), overlay_config(rounds=2))
        result = simulator.run()
        assert "hit_rate=" in result.summary()

    def test_series_lengths(self):
        simulator = SemanticOverlaySimulator(community_trace(), overlay_config(rounds=9))
        result = simulator.run(measure_every=3)
        # round 0 + rounds 3, 6, 9
        assert len(result.hit_rate_by_round) == 4


class TestExperiment:
    def test_run_gossip_overlay_small(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.overlay_experiments import run_gossip_overlay

        result = run_gossip_overlay(RunContext(scale=Scale.SMALL), rounds=12)
        assert result.metric("connected") == 1.0
        assert (
            result.metric("overlay_hit_rate")
            >= result.metric("overlay_initial_hit_rate")
        )
        assert 0.0 < result.metric("overlay_knn_quality") <= 1.0
        assert result.metric("rounds_to_converge") <= 12


class TestOverlayVsReactive:
    def test_fixed_strategy_requires_lists(self):
        from repro.core.search import SearchConfig

        with pytest.raises(ValueError, match="initial_lists"):
            SearchConfig(strategy="fixed")

    def test_fixed_lists_never_change(self):
        from repro.core.neighbours import FixedNeighbours

        fixed = FixedNeighbours(3, [1, 2, 3, 4])
        assert list(fixed.ordered()) == [1, 2, 3]
        fixed.record_upload(99)
        assert list(fixed.ordered()) == [1, 2, 3]

    def test_warm_start_seeds_lru(self):
        from repro.core.search import SearchConfig, SearchSimulator

        trace = community_trace()
        config = SearchConfig(
            list_size=3,
            strategy="lru",
            track_load=False,
            initial_lists={0: [1, 2, 3]},
            seed=0,
        )
        simulator = SearchSimulator(trace, config)
        strategy = simulator._strategy_for(0)
        assert list(strategy.ordered()) == [1, 2, 3]

    def test_experiment_ordering(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.overlay_experiments import (
            run_overlay_vs_reactive,
        )

        result = run_overlay_vs_reactive(RunContext(scale=Scale.SMALL), rounds=8)
        assert result.metric("fixed_overlay") > result.metric("lru_cold")
        assert result.metric("lru_warm") >= result.metric("lru_cold")
