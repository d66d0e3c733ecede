"""Gnutella-style flooding search over a random unstructured overlay.

Peers form a random regular-ish graph; a query floods breadth-first with a
TTL, contacting every reached peer.  The figures of merit are the hit rate
and the number of peers contacted — for a file replicated on a fraction
``p`` of peers, roughly ``1/p`` contacts are needed (the paper's "143 peers
must be contacted" estimate for its most popular file at 0.7% spread).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.trace.model import ClientId, FileId, StaticTrace
from repro.util.rng import RngStream
from repro.util.validation import check_positive


@dataclass
class FloodingConfig:
    """Overlay degree and flood TTL."""

    degree: int = 4
    ttl: int = 5

    def __post_init__(self) -> None:
        check_positive("degree", self.degree)
        check_positive("ttl", self.ttl)


def build_overlay(
    peers: List[ClientId], degree: int, rng: RngStream
) -> Dict[ClientId, List[ClientId]]:
    """A connected random overlay with average degree ~``degree``.

    Construction: a random cycle (guarantees connectivity) plus random
    chords until the average degree target is met.  Self-loops and parallel
    edges are skipped.
    """
    if len(peers) < 2:
        return {p: [] for p in peers}
    order = rng.shuffled(peers)
    adjacency: Dict[ClientId, Set[ClientId]] = {p: set() for p in peers}
    n = len(order)
    for i, peer in enumerate(order):
        other = order[(i + 1) % n]
        adjacency[peer].add(other)
        adjacency[other].add(peer)
    target_edges = max(n, (degree * n) // 2)
    current_edges = n  # the cycle
    attempts = 0
    while current_edges < target_edges and attempts < 20 * target_edges:
        attempts += 1
        a = order[rng.py.randrange(n)]
        b = order[rng.py.randrange(n)]
        if a == b or b in adjacency[a]:
            continue
        adjacency[a].add(b)
        adjacency[b].add(a)
        current_edges += 1
    return {p: sorted(neigh) for p, neigh in adjacency.items()}


@dataclass
class FloodResult:
    hit: bool
    contacted: int
    hops_to_hit: Optional[int]


class FloodingSearch:
    """Flood queries over a fixed overlay built from a static trace.

    Membership probes run on the trace's compiled form: the queried file
    id is interned to an int once per search, and each visited peer's
    cache is a frozen set of ints (only the key representation differs
    from the string caches — the BFS order and the overlay RNG never see
    file ids).
    """

    def __init__(
        self,
        trace: StaticTrace,
        config: Optional[FloodingConfig] = None,
        seed: int = 0,
    ) -> None:
        self.trace = trace
        self.config = config or FloodingConfig()
        self.rng = RngStream(seed, "flooding")
        self.peers = sorted(trace.caches)
        self.overlay = build_overlay(self.peers, self.config.degree, self.rng)
        compiled = trace.compiled()
        self._file_index: Dict[FileId, int] = compiled.file_index
        row = compiled.client_row
        sets = compiled.cache_sets
        self._lookup: Dict[ClientId, frozenset] = {
            peer: sets[row[peer]] for peer in self.peers
        }

    def _file_key(self, file_id: FileId) -> Optional[int]:
        """Interned probe key (None — matching nothing — if unknown)."""
        return self._file_index.get(file_id)

    def search(self, start: ClientId, file_id: FileId) -> FloodResult:
        """BFS flood from ``start`` with the configured TTL.

        Every visited peer (except the requester) counts as contacted,
        whether or not it holds the file — flooding does not stop early,
        but we do report the hop at which the first replica was found.
        """
        lookup = self._lookup
        file_key = self._file_key(file_id)
        visited: Set[ClientId] = {start}
        queue: deque = deque([(start, 0)])
        contacted = 0
        hops_to_hit: Optional[int] = None
        while queue:
            peer, depth = queue.popleft()
            if depth >= self.config.ttl:
                continue
            for neighbour in self.overlay.get(peer, ()):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                contacted += 1
                if hops_to_hit is None and file_key in lookup.get(
                    neighbour, frozenset()
                ):
                    hops_to_hit = depth + 1
                queue.append((neighbour, depth + 1))
        return FloodResult(
            hit=hops_to_hit is not None,
            contacted=contacted,
            hops_to_hit=hops_to_hit,
        )

    def contacts_until_hit(
        self, start: ClientId, file_id: FileId, max_contacts: int = 100_000
    ) -> Tuple[bool, int]:
        """Contacts made until the first replica is reached (expanding-ring
        style accounting: the flood is cut as soon as the file is found)."""
        lookup = self._lookup
        file_key = self._file_key(file_id)
        visited: Set[ClientId] = {start}
        queue: deque = deque([(start, 0)])
        contacted = 0
        while queue:
            peer, depth = queue.popleft()
            for neighbour in self.overlay.get(peer, ()):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                contacted += 1
                if file_key in lookup.get(neighbour, frozenset()):
                    return True, contacted
                if contacted >= max_contacts:
                    return False, contacted
                queue.append((neighbour, depth + 1))
        return False, contacted


def expected_contacts(spread_fraction: float) -> float:
    """The paper's back-of-envelope: 1 / spread for random probing."""
    if not 0 < spread_fraction <= 1:
        raise ValueError("spread fraction must be in (0, 1]")
    return 1.0 / spread_fraction


def measure_flooding(
    trace: StaticTrace,
    num_queries: int = 200,
    config: Optional[FloodingConfig] = None,
    seed: int = 0,
) -> Dict[str, float]:
    """Monte-Carlo estimate of flooding cost on a static trace.

    Queries pick a random requester and a random file held by someone else,
    then measure contacts-until-hit.  Returns hit rate and mean contacts.
    """
    search = FloodingSearch(trace, config=config, seed=seed)
    rng = RngStream(seed, "flooding-queries")
    sharers = [c for c, cache in trace.caches.items() if cache]
    if not sharers:
        raise ValueError("trace has no sharers")
    replica_slots: List[Tuple[ClientId, FileId]] = [
        (peer, fid) for peer in sharers for fid in sorted(trace.caches[peer])
    ]
    hits = 0
    total_contacts = 0
    for _ in range(num_queries):
        owner, file_id = replica_slots[rng.py.randrange(len(replica_slots))]
        requester = search.peers[rng.py.randrange(len(search.peers))]
        if requester == owner:
            continue
        ok, contacts = search.contacts_until_hit(requester, file_id)
        hits += int(ok)
        total_contacts += contacts
    return {
        "queries": float(num_queries),
        "hit_rate": hits / num_queries,
        "mean_contacts": total_contacts / num_queries,
    }
