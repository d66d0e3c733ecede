"""Vicinity: gossip-based semantic clustering (the top tier).

Each peer maintains a *semantic view* of the ``k`` peers whose shared
caches overlap its own the most.  Every round a peer gossips with a
partner — usually its semantically closest neighbour, occasionally a
random peer from the Cyclon tier (the exploration path that lets distant
communities find each other) — and both sides rebuild their views from
the union of: their own view, the partner's semantic view, and the
partner's Cyclon view, keeping the top ``k`` by proximity.

The proximity function is the paper's own clustering metric: cache
overlap (number of common files), with a Jaccard variant available for
workloads with very uneven cache sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from repro.trace.compiled import FileInterner
from repro.trace.model import ClientId, FileId
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive

CacheMap = Mapping[ClientId, FrozenSet[FileId]]


def cache_proximity(
    caches: CacheMap, a: ClientId, b: ClientId, jaccard: bool = False
) -> float:
    """Semantic proximity of two peers: cache overlap (or Jaccard).

    Works on any cache map whose values support set intersection — the
    public string-keyed caches or an interned int-set view; both give
    the same value (only sizes enter the formula).
    """
    cache_a = caches[a]
    cache_b = caches[b]
    if not cache_a or not cache_b:
        return 0.0
    common = len(cache_a & cache_b)
    if not jaccard:
        return float(common)
    union = len(cache_a) + len(cache_b) - common
    return common / union if union else 0.0


@dataclass
class VicinityConfig:
    """Semantic view size, gossip subset size and exploration rate."""

    view_size: int = 10
    gossip_length: int = 10
    explore_probability: float = 0.2  # gossip with a Cyclon peer instead
    jaccard: bool = False

    def __post_init__(self) -> None:
        check_positive("view_size", self.view_size)
        check_positive("gossip_length", self.gossip_length)
        check_fraction("explore_probability", self.explore_probability)


class Vicinity:
    """Round-based Vicinity simulation on top of a Cyclon instance.

    The cache map is interned to frozen sets of ints once at
    construction, so the proximity computations — the hot path of every
    gossip round — intersect int sets instead of string sets (proximity
    values depend only on set sizes, so views and RNG draws are those of
    the string sets).
    """

    def __init__(
        self,
        caches: CacheMap,
        cyclon,
        config: Optional[VicinityConfig] = None,
        seed: int = 0,
    ) -> None:
        self.caches = caches
        self._prox_caches: CacheMap = FileInterner().intern_cache_map(caches)
        self.cyclon = cyclon
        self.config = config or VicinityConfig()
        self.rng = RngStream(seed, "vicinity")
        self.peers: List[ClientId] = list(cyclon.peers)
        self.views: Dict[ClientId, List[ClientId]] = {}
        self.rounds_run = 0
        self._proximity_cache: Dict[tuple, float] = {}
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Start from the Cyclon views (random peers)."""
        for peer in self.peers:
            candidates = self.cyclon.view_of(peer)
            self.views[peer] = self._select(peer, candidates)

    # ------------------------------------------------------------------

    def proximity(self, a: ClientId, b: ClientId) -> float:
        key = (a, b) if a <= b else (b, a)
        value = self._proximity_cache.get(key)
        if value is None:
            value = cache_proximity(
                self._prox_caches, a, b, jaccard=self.config.jaccard
            )
            self._proximity_cache[key] = value
        return value

    def _select(self, owner: ClientId, candidates: Sequence[ClientId]) -> List[ClientId]:
        """Top-``view_size`` candidates by proximity to ``owner``.

        Ties are broken by peer id so selection is deterministic; peers
        with zero proximity are still usable as placeholders (they keep
        the view full so gossip has material to exchange).
        """
        unique = sorted({c for c in candidates if c != owner})
        ranked = sorted(unique, key=lambda c: (-self.proximity(owner, c), c))
        return ranked[: self.config.view_size]

    def view_of(self, peer: ClientId) -> List[ClientId]:
        return list(self.views[peer])

    # ------------------------------------------------------------------

    def _gossip_partner(self, peer: ClientId) -> Optional[ClientId]:
        explore = self.rng.py.random() < self.config.explore_probability
        view = self.views[peer]
        if explore or not view:
            return self.cyclon.random_peer(peer, self.rng)
        # Exploit: the semantically closest neighbour.
        return view[0]

    def gossip(self, initiator: ClientId) -> Optional[ClientId]:
        partner = self._gossip_partner(initiator)
        if partner is None or partner == initiator:
            return None
        # Candidate material both sides exchange: semantic view + cyclon
        # view + themselves.
        mine = (
            self.views[initiator][: self.config.gossip_length]
            + self.cyclon.view_of(initiator)
            + [initiator]
        )
        theirs = (
            self.views[partner][: self.config.gossip_length]
            + self.cyclon.view_of(partner)
            + [partner]
        )
        self.views[initiator] = self._select(
            initiator, self.views[initiator] + theirs
        )
        self.views[partner] = self._select(partner, self.views[partner] + mine)
        return partner

    def round(self, run_cyclon: bool = True) -> None:
        """One gossip round for every peer (plus one Cyclon round)."""
        if run_cyclon:
            self.cyclon.round()
        for peer in self.rng.shuffled(self.peers):
            self.gossip(peer)
        self.rounds_run += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.round()

    # ------------------------------------------------------------------
    # Quality metrics

    def view_quality(self, ideal: Mapping[ClientId, Sequence[ClientId]]) -> float:
        """Mean fraction of each peer's *ideal* semantic view that the
        current view has found (1.0 = converged to the exact k-NN graph)."""
        total = 0.0
        counted = 0
        for peer in self.peers:
            best = set(ideal.get(peer, ()))
            if not best:
                continue
            found = len(best & set(self.views[peer]))
            total += found / len(best)
            counted += 1
        return total / counted if counted else 0.0

    def ideal_views(self) -> Dict[ClientId, List[ClientId]]:
        """The true k-nearest-semantic-neighbour views (O(n^2); fine at
        simulation scale, used for convergence measurement)."""
        ideal: Dict[ClientId, List[ClientId]] = {}
        for peer in self.peers:
            ranked = sorted(
                (c for c in self.peers if c != peer),
                key=lambda c: (-self.proximity(peer, c), c),
            )
            positive = [c for c in ranked if self.proximity(peer, c) > 0]
            ideal[peer] = positive[: self.config.view_size]
        return ideal
