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
uniformly: ``ordered()`` (best neighbour first, the order every probe
follows at one hop and at two), ``record_upload`` and ``evict``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from heapq import nsmallest
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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

    The list is kept ranked as uploads arrive.  A bump only improves the
    bumped peer's key ``(-score, -recency)`` and recency is unique, so
    the new top ``capacity`` is the old one with that peer removed and
    re-inserted by ``bisect`` (pushing the last peer out if it was not
    listed before).  Only evicting a listed peer ranks all scores again.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        #: Sort key ``(-score, -recency)`` of every past uploader.
        self._keys: Dict[ClientId, Tuple[float, int]] = {}
        self._clock = 0
        # The visible list, best first, and its keys in the same order.
        self._ranked: List[ClientId] = []
        self._ranked_keys: List[Tuple[float, int]] = []
        self._listed: Set[ClientId] = set()

    def _bump(self, uploader: ClientId, amount: float) -> None:
        old = self._keys.get(uploader)
        score = (0.0 if old is None else -old[0]) + amount
        self._clock += 1
        key = self._keys[uploader] = (-score, -self._clock)
        ranked, ranked_keys = self._ranked, self._ranked_keys
        if uploader in self._listed:
            at = bisect_left(ranked_keys, old)
            del ranked[at], ranked_keys[at]
        elif len(ranked) < self.capacity:
            self._listed.add(uploader)
        elif key < ranked_keys[-1]:
            self._listed.remove(ranked.pop())
            ranked_keys.pop()
            self._listed.add(uploader)
        else:
            return
        at = bisect_left(ranked_keys, key)
        ranked.insert(at, uploader)
        ranked_keys.insert(at, key)

    def ordered(self) -> Sequence[ClientId]:
        return self._ranked

    def evict(self, peer: ClientId) -> None:
        if self._keys.pop(peer, None) is not None and peer in self._listed:
            keys = self._keys
            self._ranked = nsmallest(self.capacity, keys, key=keys.__getitem__)
            self._ranked_keys = [keys[p] for p in self._ranked]
            self._listed = set(self._ranked)


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

    def ordered(self) -> Sequence[ClientId]:
        return self._list

    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        return


class RandomNeighbours(NeighbourStrategy):
    """The benchmark: a fresh uniform sample of uploaders at every query.

    ``population`` is a callable returning the current list of peers that
    share at least one file (maintained by the simulator); free-riders never
    appear since they share nothing.  The list must be append-only: a peer
    is appended once and never removed or moved.  The owner's index is
    therefore looked up once, and each draw skips that index instead of
    copying the list without it.

    Every call to :meth:`ordered` draws a fresh sample: a one-hop query
    draws the querying peer's list once, and a two-hop walk draws each
    first-hop neighbour's list once, in probe order.  Seeded runs depend
    on exactly that draw pattern.
    """

    def __init__(
        self,
        capacity: int,
        rng: RngStream,
        population: Callable[[], List[ClientId]],
        owner: Optional[ClientId] = None,
    ) -> None:
        super().__init__(capacity)
        self._rng = rng
        self._population = population
        self._owner = owner
        self._setsize = _sample_setsize(capacity)
        # The owner's index in the population (-1 until it appears) and
        # how many entries were searched for it so far.
        self._owner_at = -1
        self._scanned = 0

    def ordered(self) -> Sequence[ClientId]:
        population = self._population()
        skip = self._owner_at
        if skip < 0:
            skip = self._find_owner(population)
        return _sample_skipping(
            self._rng.py, population, skip, self.capacity, self._setsize
        )

    def _find_owner(self, population: List[ClientId]) -> int:
        """The owner's index, or ``len(population)`` while it is absent.

        Each call searches only the entries appended since the last one;
        once found, the index is kept (appends never move it)."""
        size = len(population)
        if self._scanned < size:
            try:
                self._owner_at = population.index(self._owner, self._scanned)
                return self._owner_at
            except ValueError:
                self._scanned = size
        return size

    def record_upload(self, uploader: ClientId, popularity: int = 1) -> None:
        # Memoryless by design: uploads leave no trace.
        return


def _sample_setsize(k: int) -> int:
    """``random.Random.sample``'s branch threshold for a ``k``-sample.

    Populations up to this size are sampled from a copied pool, larger
    ones by re-drawing indices already selected.  Computed for the
    list's capacity: a smaller sample only happens when the population
    is smaller than the capacity, and then both thresholds pick the
    pool."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def _sample_skipping(
    rng, population: List[ClientId], skip: int, k: int, setsize: int
) -> List[ClientId]:
    """``rng.sample(pool, min(k, len(pool)))``, draw for draw, where
    ``pool`` is ``population`` without the entry at index ``skip``
    (``skip >= len(population)`` skips nothing).

    A copy of CPython's ``random.Random.sample`` with ``_randbelow``
    inlined as its ``getrandbits`` rejection loop: it consumes the same
    words and returns the same list, but only copies ``pool`` on the
    small-population branch.  ``setsize`` is :func:`_sample_setsize`.
    ``tests/core/test_neighbour_equivalence.py`` pins it against the stdlib.
    """
    getrandbits = rng.getrandbits
    n = len(population)
    if skip < n:
        n -= 1
    if k > n:
        k = n
    result = [None] * k
    if n <= setsize:
        pool = population[:skip] + population[skip + 1:]
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        selected: Set[int] = set()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result[i] = population[j + 1] if j >= skip else population[j]
    return result


def make_strategy(
    name: str,
    capacity: int,
    rng: Optional[RngStream] = None,
    population: Optional[Callable[[], List[ClientId]]] = None,
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
