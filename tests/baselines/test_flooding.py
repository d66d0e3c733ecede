"""Tests for the flooding baseline."""

import pytest

from repro.baselines.flooding import (
    FloodingConfig,
    FloodingSearch,
    build_overlay,
    expected_contacts,
    measure_flooding,
)
from repro.util.rng import RngStream
from tests.conftest import build_static


class TestBuildOverlay:
    def test_connected_cycle_backbone(self):
        peers = list(range(30))
        overlay = build_overlay(peers, degree=4, rng=RngStream(0))
        # BFS from peer 0 reaches everybody (the cycle guarantees it).
        seen = {peers[0]}
        frontier = [peers[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in overlay[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        assert seen == set(peers)

    def test_average_degree_near_target(self):
        peers = list(range(100))
        overlay = build_overlay(peers, degree=6, rng=RngStream(1))
        mean_degree = sum(len(n) for n in overlay.values()) / len(peers)
        assert mean_degree == pytest.approx(6, abs=1.0)

    def test_no_self_loops_or_duplicates(self):
        overlay = build_overlay(list(range(40)), degree=5, rng=RngStream(2))
        for peer, neighbours in overlay.items():
            assert peer not in neighbours
            assert len(neighbours) == len(set(neighbours))

    def test_symmetry(self):
        overlay = build_overlay(list(range(20)), degree=4, rng=RngStream(3))
        for peer, neighbours in overlay.items():
            for neighbour in neighbours:
                assert peer in overlay[neighbour]

    def test_tiny_populations(self):
        assert build_overlay([], 4, RngStream(0)) == {}
        assert build_overlay([1], 4, RngStream(0)) == {1: []}


class TestFloodingSearch:
    def trace(self):
        caches = {i: [] for i in range(20)}
        caches[7] = ["target"]
        return build_static(caches)

    def test_contacts_until_hit_stops_early(self):
        trace = build_static({i: ["everywhere"] for i in range(30)})
        search = FloodingSearch(trace, FloodingConfig(degree=4))
        ok, contacts = search.contacts_until_hit(0, "everywhere")
        assert ok
        assert contacts == 1

    def test_missing_file_not_found(self):
        search = FloodingSearch(self.trace(), FloodingConfig(degree=4))
        ok, contacts = search.contacts_until_hit(0, "nowhere")
        assert not ok
        assert contacts == 19  # everyone contacted


class TestExpectedContacts:
    def test_papers_estimate(self):
        """0.7% spread -> ~143 contacts (Section 3)."""
        assert expected_contacts(0.007) == pytest.approx(142.9, abs=0.1)

    def test_invalid_spread(self):
        with pytest.raises(ValueError):
            expected_contacts(0.0)
        with pytest.raises(ValueError):
            expected_contacts(1.5)


class TestMeasureFlooding:
    def test_monte_carlo(self, small_static_trace):
        stats = measure_flooding(small_static_trace, num_queries=50, seed=0)
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["mean_contacts"] > 0

    def test_rarer_files_cost_more(self):
        # A file on half the peers vs a file on one peer.
        caches = {i: ["common"] if i % 2 == 0 else [] for i in range(60)}
        caches[1] = ["rare"]
        trace = build_static(caches)
        search = FloodingSearch(trace, FloodingConfig(degree=4), seed=1)
        common_costs = []
        rare_costs = []
        for start in range(10, 30):
            ok_c, cost_c = search.contacts_until_hit(start, "common")
            ok_r, cost_r = search.contacts_until_hit(start, "rare")
            assert ok_c and ok_r
            common_costs.append(cost_c)
            rare_costs.append(cost_r)
        assert sum(rare_costs) > sum(common_costs)

    def test_no_sharers_raises(self):
        trace = build_static({0: [], 1: []})
        with pytest.raises(ValueError):
            measure_flooding(trace, num_queries=5)
