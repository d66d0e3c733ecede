"""Gnutella-style flooding search over a random unstructured overlay.

Peers form a random regular-ish graph; a query floods breadth-first and
counts the peers it contacts until the first replica answers.  The figures
of merit are the hit rate and the number of peers contacted — for a file
replicated on a fraction ``p`` of peers, roughly ``1/p`` contacts are
needed (the paper's "143 peers must be contacted" estimate for its most
popular file at 0.7% spread).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.trace.model import ClientId, FileId, StaticTrace
from repro.util.rng import RngStream
from repro.util.validation import check_positive


@dataclass
class FloodingConfig:
    """Overlay degree."""

    degree: int = 4

    def __post_init__(self) -> None:
        check_positive("degree", self.degree)


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

    def contacts_until_hit(
        self, start: ClientId, file_id: FileId, max_contacts: int = 100_000
    ) -> Tuple[bool, int]:
        """Contacts made until the first replica is reached (expanding-ring
        style accounting: the flood is cut as soon as the file is found)."""
        lookup = self._lookup
        # Interned probe key (None, matching nothing, if unknown).
        file_key = self._file_index.get(file_id)
        visited: Set[ClientId] = {start}
        queue: deque = deque([start])
        contacted = 0
        while queue:
            peer = queue.popleft()
            for neighbour in self.overlay.get(peer, ()):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                contacted += 1
                if file_key in lookup.get(neighbour, frozenset()):
                    return True, contacted
                if contacted >= max_contacts:
                    return False, contacted
                queue.append(neighbour)
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
    """Monte-Carlo estimate of flooding cost on a static trace: hit rate
    and mean contacts-until-hit (see :func:`measure_queries`)."""
    search = FloodingSearch(trace, config=config, seed=seed)
    return measure_queries(
        trace,
        search.peers,
        search.contacts_until_hit,
        num_queries,
        RngStream(seed, "flooding-queries"),
        "trace has no sharers",
    )


def measure_queries(
    trace: StaticTrace,
    peers: List[ClientId],
    probe: Callable[[ClientId, FileId], Tuple[bool, int]],
    num_queries: int,
    rng: RngStream,
    empty_error: str,
) -> Dict[str, float]:
    """Hit rate and mean contacts of ``num_queries`` drawn queries.

    Each query draws a replica slot (a file and a peer holding it) and a
    requester from ``peers``; ``probe(requester, file_id)`` returns
    ``(hit, contacts)``.  A requester that drew its own replica is
    skipped but still counts in the means.  A trace without replicas
    raises ``ValueError(empty_error)``.
    """
    replica_slots: List[Tuple[ClientId, FileId]] = [
        (peer, fid)
        for peer, cache in trace.caches.items()
        if cache
        for fid in sorted(cache)
    ]
    if not replica_slots:
        raise ValueError(empty_error)
    hits = 0
    total_contacts = 0
    for _ in range(num_queries):
        owner, file_id = replica_slots[rng.py.randrange(len(replica_slots))]
        requester = peers[rng.py.randrange(len(peers))]
        if requester == owner:
            continue
        hit, contacts = probe(requester, file_id)
        hits += int(hit)
        total_contacts += contacts
    return {
        "queries": float(num_queries),
        "hit_rate": hits / num_queries,
        "mean_contacts": total_contacts / num_queries,
    }
