"""Tests for semantic-neighbour list strategies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.neighbours import (
    HistoryNeighbours,
    LRUNeighbours,
    PopularityNeighbours,
    RandomNeighbours,
    make_strategy,
)
from repro.util.rng import RngStream


class TestLRU:
    def test_most_recent_first(self):
        lru = LRUNeighbours(3)
        for peer in (1, 2, 3):
            lru.record_upload(peer)
        assert list(lru.ordered()) == [3, 2, 1]

    def test_eviction(self):
        lru = LRUNeighbours(2)
        for peer in (1, 2, 3):
            lru.record_upload(peer)
        assert list(lru.ordered()) == [3, 2]
        lru.record_upload(1)  # the evicted peer comes back as a new one
        assert list(lru.ordered()) == [1, 3]

    def test_reupload_moves_to_front(self):
        lru = LRUNeighbours(3)
        for peer in (1, 2, 3, 1):
            lru.record_upload(peer)
        assert list(lru.ordered()) == [1, 3, 2]
        assert len(lru) == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUNeighbours(0)

    @given(st.lists(st.integers(0, 20), max_size=80))
    def test_invariants(self, uploads):
        lru = LRUNeighbours(5)
        for peer in uploads:
            lru.record_upload(peer)
        ordered = list(lru.ordered())
        assert len(ordered) <= 5
        assert len(ordered) == len(set(ordered))
        if uploads:
            assert ordered[0] == uploads[-1]


class TestHistory:
    def test_counts_rank(self):
        history = HistoryNeighbours(2)
        for peer in (1, 2, 2, 3, 3, 3):
            history.record_upload(peer)
        assert list(history.ordered()) == [3, 2]

    def test_tie_broken_by_recency(self):
        history = HistoryNeighbours(3)
        history.record_upload(1)
        history.record_upload(2)
        assert list(history.ordered()) == [2, 1]

    def test_popularity_arg_ignored(self):
        history = HistoryNeighbours(2)
        history.record_upload(1, popularity=1000)
        history.record_upload(2, popularity=1)
        history.record_upload(2, popularity=1)
        assert list(history.ordered()) == [2, 1]

    def test_scores_persist_beyond_list(self):
        """A peer evicted from the visible list can return when its count
        overtakes."""
        history = HistoryNeighbours(1)
        history.record_upload(1)
        history.record_upload(2)
        history.record_upload(2)
        assert list(history.ordered()) == [2]
        history.record_upload(1)
        history.record_upload(1)
        assert list(history.ordered()) == [1]

    @given(st.lists(st.integers(0, 10), max_size=60))
    def test_ordered_by_count(self, uploads):
        history = HistoryNeighbours(4)
        counts = {}
        for peer in uploads:
            history.record_upload(peer)
            counts[peer] = counts.get(peer, 0) + 1
        ordered = list(history.ordered())
        values = [counts[p] for p in ordered]
        assert values == sorted(values, reverse=True)


class TestPopularity:
    def test_rare_uploads_weigh_more(self):
        pop = PopularityNeighbours(1)
        pop.record_upload(1, popularity=100)  # 0.01
        pop.record_upload(1, popularity=100)  # 0.02 total
        pop.record_upload(2, popularity=2)  # 0.5
        assert list(pop.ordered()) == [2]

    def test_popularity_floor(self):
        pop = PopularityNeighbours(2)
        pop.record_upload(1, popularity=0)  # clamped to 1
        assert list(pop.ordered()) == [1]


class TestRandom:
    def make(self, capacity, population):
        rng = RngStream(0, "random-test")
        return RandomNeighbours(capacity, rng, lambda: population, owner=99)

    def test_samples_from_population(self):
        random_list = self.make(3, [1, 2, 3, 4, 5])
        picks = set()
        for _ in range(50):
            ordered = list(random_list.ordered())
            assert len(ordered) == 3
            picks.update(ordered)
        assert picks == {1, 2, 3, 4, 5}

    def test_excludes_owner(self):
        random_list = self.make(5, [99, 1, 2])
        for _ in range(20):
            assert 99 not in random_list.ordered()

    def test_memoryless(self):
        random_list = self.make(2, [1, 2, 3])
        random_list.record_upload(1)
        # record_upload leaves no trace; just ensure no crash and
        # resampling continues.
        assert len(list(random_list.ordered())) == 2

    def test_small_population(self):
        random_list = self.make(10, [1, 2])
        assert sorted(random_list.ordered()) == [1, 2]


class TestFactory:
    def test_builds_each_kind(self):
        rng = RngStream(0)
        assert isinstance(make_strategy("lru", 5), LRUNeighbours)
        assert isinstance(make_strategy("history", 5), HistoryNeighbours)
        assert isinstance(make_strategy("popularity", 5), PopularityNeighbours)
        random_list = make_strategy("random", 5, rng=rng, population=lambda: [1])
        assert isinstance(random_list, RandomNeighbours)

    def test_case_insensitive(self):
        assert isinstance(make_strategy("LRU", 5), LRUNeighbours)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("fifo", 5)

    def test_random_requires_population(self):
        with pytest.raises(ValueError):
            make_strategy("random", 5)

