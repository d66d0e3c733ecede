"""The neighbour lists' shortcuts against their plain references.

Random lists draw through ``_sample_skipping``, a copy of CPython's
``random.Random.sample`` that skips the owner by index instead of
filtering the population; the reference is the stdlib ``sample`` over
the filtered list, which must return the same list and leave the
generator in the same state.  History and Popularity keep their top
list ranked as uploads arrive; the reference is a full sort of every
score after each operation.  No golden case evicts from History or
Popularity, so the re-rank on eviction is pinned only here.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbours import (
    HistoryNeighbours,
    PopularityNeighbours,
    RandomNeighbours,
)
from repro.util.rng import RngStream

OWNER = -1


def _draw_matches_sample(strategy, reference, population, capacity):
    pool = [peer for peer in population if peer != OWNER]
    expected = reference.sample(pool, min(capacity, len(pool)))
    assert strategy.ordered() == expected
    assert strategy._rng.py.getstate() == reference.getstate()


def _pair(capacity, population, seed):
    strategy = RandomNeighbours(
        capacity, RngStream(seed, "mirror"), lambda: population, owner=OWNER
    )
    return strategy, RngStream(seed, "mirror").py


class TestRandomSampleMirror:
    def test_every_size_capacity_and_owner_position(self):
        """Pools of 0-200 peers cover both of ``sample``'s branches: a
        copied pool up to its set-size threshold (21 for samples of at
        most 5, 85 up to 21, 277 beyond) and re-drawn indices above it.
        For each pool size the capacity runs past the pool, and the
        owner moves through every index and then drops out."""
        for n in range(201):
            for capacity in range(1, n + 3):
                population = list(range(n))
                owner_at = capacity - 1
                if owner_at <= n:
                    population.insert(owner_at, OWNER)
                strategy, reference = _pair(capacity, population, n)
                for _ in range(2):
                    _draw_matches_sample(
                        strategy, reference, population, capacity
                    )

    def test_every_owner_position_on_both_branches(self):
        for capacity in (5, 20):
            for n in (21, 22, 85, 86, 150):
                for owner_at in range(n + 2):
                    population = list(range(n))
                    if owner_at <= n:
                        population.insert(owner_at, OWNER)
                    strategy, reference = _pair(capacity, population, owner_at)
                    _draw_matches_sample(
                        strategy, reference, population, capacity
                    )

    def test_population_growing_between_draws(self):
        """The owner joins the append-only population part way through,
        and the draws cross from the copied-pool branch to the other."""
        for capacity in (1, 5, 6, 20):
            for owner_joins in (0, 3, 40, 120, None):
                population = []
                strategy, reference = _pair(capacity, population, capacity)
                for step in range(150):
                    population.append(OWNER if step == owner_joins else step)
                    _draw_matches_sample(
                        strategy, reference, population, capacity
                    )


#: One operation on a scored list: an upload (peer, popularity), an
#: eviction, or a pickle round trip.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("upload"), st.integers(0, 12), st.integers(0, 30)),
        st.tuples(st.just("evict"), st.integers(0, 12)),
        st.just(("pickle",)),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(
    cls=st.sampled_from([HistoryNeighbours, PopularityNeighbours]),
    capacity=st.integers(1, 6),
    operations=OPERATIONS,
)
def test_ranking_matches_a_full_sort(cls, capacity, operations):
    strategy = cls(capacity)
    scores, recency, clock = {}, {}, 0
    for operation in operations:
        kind = operation[0]
        if kind == "upload":
            _, peer, popularity = operation
            strategy.record_upload(peer, popularity=popularity)
            weight = 1.0 if cls is HistoryNeighbours else 1.0 / max(1, popularity)
            scores[peer] = scores.get(peer, 0.0) + weight
            clock += 1
            recency[peer] = clock
        elif kind == "evict":
            strategy.evict(operation[1])
            scores.pop(operation[1], None)
            recency.pop(operation[1], None)
        else:
            strategy = pickle.loads(pickle.dumps(strategy))
        expected = sorted(scores, key=lambda p: (-scores[p], -recency[p]))
        expected = expected[:capacity]
        assert list(strategy.ordered()) == expected
        assert strategy._listed == set(expected)
