"""Tests for the Cyclon peer-sampling protocol."""

from collections import Counter

import pytest

from repro.overlay.cyclon import Cyclon, CyclonConfig, ViewEntry


def make_cyclon(n=30, view_size=6, shuffle_length=3, seed=0):
    return Cyclon(
        list(range(n)),
        CyclonConfig(view_size=view_size, shuffle_length=shuffle_length),
        seed=seed,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CyclonConfig(view_size=0)
        with pytest.raises(ValueError):
            CyclonConfig(view_size=4, shuffle_length=5)


class TestBootstrap:
    def test_needs_two_peers(self):
        with pytest.raises(ValueError):
            Cyclon([1])

    def test_views_filled(self):
        cyclon = make_cyclon()
        for peer in cyclon.peers:
            view = cyclon.views[peer]
            assert len(view) == 6
            assert peer not in {e.peer for e in view}

    def test_small_population_views_capped(self):
        cyclon = Cyclon([1, 2, 3], CyclonConfig(view_size=10, shuffle_length=2))
        assert len(cyclon.views[1]) == 2


class TestInvariants:
    def test_no_self_or_duplicate_entries_after_rounds(self):
        cyclon = make_cyclon()
        cyclon.run(10)
        for peer in cyclon.peers:
            members = [e.peer for e in cyclon.views[peer]]
            assert peer not in members
            assert len(members) == len(set(members))

    def test_view_size_bounded(self):
        cyclon = make_cyclon()
        cyclon.run(10)
        for view in cyclon.views.values():
            assert len(view) <= cyclon.config.view_size

    def test_connectivity_maintained(self):
        cyclon = make_cyclon(n=60)
        cyclon.run(15)
        assert cyclon.is_connected()

    def test_ages_bounded_by_shuffling(self):
        """The oldest-first target selection keeps entry ages low."""
        cyclon = make_cyclon()
        cyclon.run(20)
        max_age = max(
            entry.age for view in cyclon.views.values() for entry in view
        )
        assert max_age < 20  # far below the round count

    def test_indegree_balance(self):
        """Cyclon famously balances indegrees; no peer should dominate."""
        cyclon = make_cyclon(n=80, view_size=8, shuffle_length=4, seed=3)
        cyclon.run(20)
        indegree = Counter(
            entry.peer for view in cyclon.views.values() for entry in view
        )
        degrees = [indegree[p] for p in cyclon.peers]
        mean = sum(degrees) / len(degrees)
        assert max(degrees) < 3 * mean

    def test_deterministic(self):
        a = make_cyclon(seed=5)
        b = make_cyclon(seed=5)
        a.run(5)
        b.run(5)
        assert {p: [e.peer for e in v] for p, v in a.views.items()} == {
            p: [e.peer for e in v] for p, v in b.views.items()
        }


class TestShuffle:
    def test_shuffle_returns_partner(self):
        cyclon = make_cyclon()
        partner = cyclon.shuffle(0)
        assert partner is not None
        assert partner != 0

    def test_initiator_advertised_to_partner(self):
        cyclon = make_cyclon(n=10, view_size=4, shuffle_length=2, seed=1)
        partner = cyclon.shuffle(0)
        partner_members = {e.peer for e in cyclon.views[partner]}
        assert 0 in partner_members

    def test_random_peer_from_view(self):
        cyclon = make_cyclon()
        peer = cyclon.random_peer(0)
        assert peer in {e.peer for e in cyclon.views[0]} or peer is None


class TestMerge:
    def test_merge_drops_self(self):
        cyclon = make_cyclon()
        merged = cyclon._merge(0, [], [ViewEntry(0, 1), ViewEntry(5, 0)], [])
        assert [e.peer for e in merged] == [5]

    def test_merge_prefers_received_over_sent(self):
        cyclon = Cyclon([0, 1, 2, 3, 4, 5], CyclonConfig(view_size=2, shuffle_length=2))
        view = [ViewEntry(1, 0), ViewEntry(2, 0)]
        merged = cyclon._merge(0, view, [ViewEntry(3, 0)], sent_peers=[1])
        members = [e.peer for e in merged]
        assert 3 in members
        assert 1 not in members
        assert len(members) == 2
