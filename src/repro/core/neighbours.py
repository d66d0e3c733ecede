"""Semantic-neighbour list strategies (Section 5.2).

Each peer maintains a bounded, ordered list of *semantic neighbours* — peers
that uploaded files to it in the past — and queries them before resorting to
the fall-back (server or flooding) search.  The strategies differ only in
how the list is maintained:

- **LRU**: the most recent uploader moves to the head; the tail is evicted
  when the list is full (the strategy the paper evaluates most).
- **History** (frequency-based): counters of successful uploads per peer;
  the list holds the peers with the highest counts.
- **Random**: the benchmark — ``capacity`` peers drawn uniformly from the
  current uploader population at query time, with no memory.
- **Popularity** (from Voulgaris et al. [30], discussed in Section 5.3.2):
  like History but each upload is weighted by the inverse popularity of the
  requested file, so rare-file uploaders — the semantically meaningful
  ones — dominate the list.

All strategies expose the same interface so the simulator can treat them
uniformly: ``ordered()`` (best neighbour first), ``members()`` (an RNG-free
O(1) membership view, used by the fast two-hop path, or None for Random)
and ``record_upload``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence

from repro.trace.model import ClientId
from repro.util.rng import RngStream
from repro.util.validation import check_positive

STRATEGY_NAMES = ("lru", "history", "random", "popularity")


class NeighbourStrategy(ABC):
    """Interface of a per-peer semantic neighbour list."""

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity

    @abstractmethod
    def ordered(self) -> Sequence[ClientId]:
        """Current neighbour list, best-first, length <= capacity."""

    @abstractmethod
    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        """Notify the strategy that ``uploader`` served a file.

        ``popularity`` is the number of sources of the requested file at
        request time (only the Popularity strategy uses it)."""

    def members(self):
        """The current list as an RNG-free O(1) membership view, or None.

        Strategies with a materialized list (LRU, History, Popularity,
        Fixed) return a mapping/set whose ``in`` operator tells whether a
        peer is in :meth:`ordered` without rebuilding it or consuming
        any RNG; the two-hop fast path unions these views to test many
        sharers at once.  Sampling strategies (Random), whose membership
        is only defined against a fresh draw, return None — callers must
        probe a fresh :meth:`ordered` per check so the seeded draw
        pattern is preserved.
        """
        return None

    def evict(self, peer: ClientId) -> None:
        """Forget ``peer`` (dead-neighbour detection: it stopped answering).

        Strategies without learned state (Random, Fixed) ignore evictions —
        there is nothing to forget."""
        return

    def __len__(self) -> int:
        return len(self.ordered())


class LRUNeighbours(NeighbourStrategy):
    """Least-Recently-Used list: new uploader to the head, evict the tail."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._list: List[ClientId] = []
        self._members: Dict[ClientId, None] = {}

    def ordered(self) -> Sequence[ClientId]:
        return self._list

    def members(self):
        return self._members

    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        if uploader in self._members:
            self._list.remove(uploader)
        else:
            self._members[uploader] = None
        self._list.insert(0, uploader)
        while len(self._list) > self.capacity:
            evicted = self._list.pop()
            del self._members[evicted]

    def evict(self, peer: ClientId) -> None:
        if peer in self._members:
            self._list.remove(peer)
            del self._members[peer]


class _ScoredNeighbours(NeighbourStrategy):
    """Shared machinery for score-ranked strategies (History, Popularity).

    Scores are kept for *all* past uploaders; the visible list is the top
    ``capacity`` by (score desc, recency desc).  Recency breaks ties
    deterministically — the most recent uploader wins, which matches the
    cache-management intuition and avoids arbitrary dict order.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._scores: Dict[ClientId, float] = {}
        self._recency: Dict[ClientId, int] = {}
        self._clock = 0
        self._cache: Optional[List[ClientId]] = None
        self._cache_set: Dict[ClientId, int] = {}

    def _bump(self, uploader: ClientId, amount: float) -> None:
        self._scores[uploader] = self._scores.get(uploader, 0.0) + amount
        self._clock += 1
        self._recency[uploader] = self._clock
        self._cache = None

    def _ensure_ranked(self) -> None:
        """Rebuild the ranked view if dirty (amortized O(1) when clean)."""
        if self._cache is None:
            ranked = sorted(
                self._scores,
                key=lambda peer: (-self._scores[peer], -self._recency[peer]),
            )
            self._cache = ranked[: self.capacity]
            self._cache_set = {peer: i for i, peer in enumerate(self._cache)}

    def ordered(self) -> Sequence[ClientId]:
        self._ensure_ranked()
        return self._cache

    def members(self):
        self._ensure_ranked()
        return self._cache_set

    def evict(self, peer: ClientId) -> None:
        if peer in self._scores:
            del self._scores[peer]
            self._recency.pop(peer, None)
            self._cache = None


class HistoryNeighbours(_ScoredNeighbours):
    """Frequency-based list: count successful uploads per peer."""

    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        self._bump(uploader, 1.0)


class PopularityNeighbours(_ScoredNeighbours):
    """Popularity-weighted list ([30]): rare-file uploads score higher.

    An upload of a file with ``popularity`` current sources scores
    ``1/popularity``, so peers that serve rare files — the signature of a
    genuine shared interest — are retained preferentially.
    """

    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        self._bump(uploader, 1.0 / max(1, popularity))


class FixedNeighbours(NeighbourStrategy):
    """A frozen neighbour list (e.g. a converged gossip view).

    Uploads leave no trace: the list is whatever it was built with.  Used
    to evaluate *proactively* constructed semantic views (the epidemic
    overlay of :mod:`repro.overlay`) inside the trace-driven simulator,
    against the reactive strategies that learn from uploads.
    """

    def __init__(self, capacity: int, members: Sequence[ClientId]) -> None:
        super().__init__(capacity)
        self._list: List[ClientId] = list(members)[:capacity]
        self._positions = {peer: i for i, peer in enumerate(self._list)}

    def ordered(self) -> Sequence[ClientId]:
        return self._list

    def members(self):
        return self._positions

    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        return


class RandomNeighbours(NeighbourStrategy):
    """The benchmark: a fresh uniform sample of uploaders at every query.

    ``population`` is a callable returning the current list of peers that
    share at least one file (maintained by the simulator); free-riders never
    appear since they share nothing.

    Random has no ``members()`` view *on purpose*: membership is only
    defined against a fresh sample, so each probe must call
    :meth:`ordered` (and consume RNG draws) — seeded runs depend on
    exactly that draw pattern.
    """

    def __init__(
        self,
        capacity: int,
        rng: RngStream,
        population: Callable[[], Sequence[ClientId]],
        owner: Optional[ClientId] = None,
    ) -> None:
        super().__init__(capacity)
        self._rng = rng
        self._population = population
        self._owner = owner
        self._current: List[ClientId] = []

    def ordered(self) -> Sequence[ClientId]:
        pool = [p for p in self._population() if p != self._owner]
        self._current = self._rng.sample_without_replacement(pool, self.capacity)
        return self._current

    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        # Memoryless by design: uploads leave no trace.
        return


def make_strategy(
    name: str,
    capacity: int,
    rng: Optional[RngStream] = None,
    population: Optional[Callable[[], Sequence[ClientId]]] = None,
    owner: Optional[ClientId] = None,
) -> NeighbourStrategy:
    """Factory keyed by strategy name (see ``STRATEGY_NAMES``)."""
    lowered = name.lower()
    if lowered == "lru":
        return LRUNeighbours(capacity)
    if lowered == "history":
        return HistoryNeighbours(capacity)
    if lowered == "popularity":
        return PopularityNeighbours(capacity)
    if lowered == "random":
        if rng is None or population is None:
            raise ValueError("random strategy needs rng and population")
        return RandomNeighbours(capacity, rng, population, owner)
    raise ValueError(
        f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
    )
