"""Tests for the Vicinity semantic-clustering protocol."""

import pytest

from repro.overlay.cyclon import Cyclon, CyclonConfig
from repro.overlay.vicinity import Vicinity, VicinityConfig, cache_proximity


def community_caches(num_communities=3, peers_per=6, files_per=12):
    """Disjoint communities with identical caches inside each."""
    caches = {}
    for community in range(num_communities):
        files = frozenset(f"c{community}-f{i}" for i in range(files_per))
        for member in range(peers_per):
            caches[community * 100 + member] = files
    return caches


def build(caches, view_size=4, explore=0.3, seed=0, cyclon_view=8):
    peers = sorted(caches)
    cyclon = Cyclon(
        peers, CyclonConfig(view_size=min(cyclon_view, len(peers) - 1), shuffle_length=3), seed=seed
    )
    vicinity = Vicinity(
        caches,
        cyclon,
        VicinityConfig(view_size=view_size, explore_probability=explore),
        seed=seed,
    )
    return vicinity


class TestProximity:
    def test_overlap(self):
        caches = {1: frozenset({"a", "b"}), 2: frozenset({"b", "c"}), 3: frozenset()}
        assert cache_proximity(caches, 1, 2) == 1.0
        assert cache_proximity(caches, 1, 3) == 0.0

    def test_cached_and_symmetric(self):
        vicinity = build(community_caches())
        assert vicinity.proximity(0, 1) == vicinity.proximity(1, 0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            VicinityConfig(view_size=0)
        with pytest.raises(ValueError):
            VicinityConfig(explore_probability=1.5)


class TestSelection:
    def test_select_prefers_community(self):
        caches = community_caches()
        vicinity = build(caches)
        # Candidates from own community and a foreign one.
        selected = vicinity._select(0, [1, 2, 100, 101, 200])
        assert selected[:2] == [1, 2]

    def test_select_excludes_self(self):
        vicinity = build(community_caches())
        assert 0 not in vicinity._select(0, [0, 1, 2])

    def test_view_bounded(self):
        vicinity = build(community_caches(), view_size=3)
        assert all(len(v) <= 3 for v in vicinity.views.values())


class TestConvergence:
    def test_views_become_community_local(self):
        caches = community_caches(num_communities=4, peers_per=6)
        vicinity = build(caches, view_size=5, seed=2)
        vicinity.run(15)
        local = 0
        total = 0
        for peer, view in vicinity.views.items():
            for other in view:
                total += 1
                if other // 100 == peer // 100:
                    local += 1
        assert local / total > 0.9

    def test_quality_improves(self):
        caches = community_caches(num_communities=4, peers_per=6)
        vicinity = build(caches, view_size=5, seed=3)
        ideal = vicinity.ideal_views()
        before = vicinity.view_quality(ideal)
        vicinity.run(15)
        after = vicinity.view_quality(ideal)
        assert after > before
        assert after > 0.9


class TestIdealViews:
    def test_only_positive_proximity(self):
        caches = community_caches(num_communities=2, peers_per=4)
        vicinity = build(caches)
        ideal = vicinity.ideal_views()
        for peer, view in ideal.items():
            for other in view:
                assert vicinity.proximity(peer, other) > 0

    def test_quality_of_exact_views_is_one(self):
        caches = community_caches(num_communities=2, peers_per=4)
        vicinity = build(caches, view_size=3)
        ideal = vicinity.ideal_views()
        vicinity.views = {p: list(v) for p, v in ideal.items()}
        assert vicinity.view_quality(ideal) == pytest.approx(1.0)


class TestGossip:
    def test_gossip_updates_both_sides(self):
        caches = community_caches()
        vicinity = build(caches, seed=5)
        partner = vicinity.gossip(0)
        if partner is not None:
            assert len(vicinity.views[0]) <= vicinity.config.view_size
            assert len(vicinity.views[partner]) <= vicinity.config.view_size

    def test_deterministic(self):
        a = build(community_caches(), seed=6)
        b = build(community_caches(), seed=6)
        a.run(5)
        b.run(5)
        assert a.views == b.views
