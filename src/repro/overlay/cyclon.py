"""Cyclon: gossip-based peer sampling.

Cyclon keeps, at every node, a small *view* of ``(peer, age)`` entries and
periodically *shuffles* with the oldest peer in the view: both sides
exchange a random subset of their entries and adopt the received ones,
evicting what they sent.  The emergent overlay is a random-graph-like
topology with bounded degree, self-healing under churn — the bottom tier
on which Vicinity's semantic clustering rides.

This is a faithful round-based implementation of the protocol as used by
the epidemic semantic-overlay literature:

- ages increase by one every round; the shuffle target is the oldest
  entry (bounding how stale knowledge can get);
- the initiator always includes a fresh entry for itself in the subset it
  sends (this is how newcomers get absorbed);
- duplicate and self entries are dropped on merge; if the merged view
  overflows, received entries take precedence over the ones that were
  sent away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.trace.model import ClientId
from repro.util.rng import RngStream
from repro.util.validation import check_positive


@dataclass
class ViewEntry:
    """One view slot: a peer descriptor plus its gossip age."""

    peer: ClientId
    age: int = 0


@dataclass
class CyclonConfig:
    """View size and shuffle length (how many entries are exchanged)."""

    view_size: int = 20
    shuffle_length: int = 8

    def __post_init__(self) -> None:
        check_positive("view_size", self.view_size)
        check_positive("shuffle_length", self.shuffle_length)
        if self.shuffle_length > self.view_size:
            raise ValueError("shuffle_length cannot exceed view_size")


class Cyclon:
    """Round-based Cyclon simulation over a fixed peer population."""

    def __init__(
        self,
        peers: Sequence[ClientId],
        config: Optional[CyclonConfig] = None,
        seed: int = 0,
    ) -> None:
        if len(peers) < 2:
            raise ValueError("cyclon needs at least 2 peers")
        self.config = config or CyclonConfig()
        self.rng = RngStream(seed, "cyclon")
        self.peers: List[ClientId] = sorted(peers)
        self.views: Dict[ClientId, List[ViewEntry]] = {}
        self.rounds_run = 0
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Initialize each view with random peers (a tracker-style seed)."""
        for peer in self.peers:
            candidates = [p for p in self.peers if p != peer]
            sample = self.rng.sample_without_replacement(
                candidates, min(self.config.view_size, len(candidates))
            )
            self.views[peer] = [ViewEntry(p, age=0) for p in sample]

    # ------------------------------------------------------------------

    def view_of(self, peer: ClientId) -> List[ClientId]:
        return [entry.peer for entry in self.views[peer]]

    def neighbours(self, peer: ClientId) -> List[ClientId]:
        """Alias for :meth:`view_of` (the peer-sampling service)."""
        return self.view_of(peer)

    def random_peer(self, peer: ClientId, rng: Optional[RngStream] = None) -> Optional[ClientId]:
        """A uniform pick from the peer's current view."""
        view = self.views[peer]
        if not view:
            return None
        chooser = rng or self.rng
        return view[chooser.py.randrange(len(view))].peer

    # ------------------------------------------------------------------

    def _oldest_index(self, view: List[ViewEntry]) -> int:
        best = 0
        for i, entry in enumerate(view):
            if entry.age > view[best].age:
                best = i
        return best

    def _merge(
        self,
        owner: ClientId,
        view: List[ViewEntry],
        received: List[ViewEntry],
        sent_peers: List[ClientId],
    ) -> List[ViewEntry]:
        """Cyclon merge rule: received entries first, drop self/dupes,
        evict the entries that were shuffled away if space is needed."""
        present = {entry.peer for entry in view}
        merged = list(view)
        for entry in received:
            if entry.peer == owner or entry.peer in present:
                continue
            merged.append(ViewEntry(entry.peer, entry.age))
            present.add(entry.peer)
        if len(merged) > self.config.view_size:
            sent = set(sent_peers)
            keep: List[ViewEntry] = []
            overflow = len(merged) - self.config.view_size
            for entry in merged:
                if overflow > 0 and entry.peer in sent:
                    overflow -= 1
                    continue
                keep.append(entry)
            merged = keep[: self.config.view_size]
        return merged

    def shuffle(self, initiator: ClientId) -> Optional[ClientId]:
        """One shuffle initiated by ``initiator``; returns the partner."""
        view = self.views[initiator]
        if not view:
            return None
        for entry in view:
            entry.age += 1
        partner_index = self._oldest_index(view)
        partner = view[partner_index].peer
        # Remove the partner's entry (it is being contacted).
        view.pop(partner_index)

        out_count = min(self.config.shuffle_length - 1, len(view))
        outgoing = self.rng.sample_without_replacement(
            list(range(len(view))), out_count
        )
        sent_entries = [view[i] for i in outgoing]
        sent = [ViewEntry(initiator, 0)] + [
            ViewEntry(e.peer, e.age) for e in sent_entries
        ]

        partner_view = self.views[partner]
        reply_count = min(self.config.shuffle_length, len(partner_view))
        reply_indexes = self.rng.sample_without_replacement(
            list(range(len(partner_view))), reply_count
        )
        reply = [
            ViewEntry(partner_view[i].peer, partner_view[i].age)
            for i in reply_indexes
        ]

        self.views[partner] = self._merge(
            partner, partner_view, sent, [e.peer for e in reply]
        )
        self.views[initiator] = self._merge(
            initiator, view, reply, [e.peer for e in sent_entries]
        )
        return partner

    def round(self) -> None:
        """Every peer initiates one shuffle (random activation order)."""
        order = self.rng.shuffled(self.peers)
        for peer in order:
            self.shuffle(peer)
        self.rounds_run += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.round()

    # ------------------------------------------------------------------
    # Diagnostics

    def is_connected(self) -> bool:
        """Weak connectivity of the union (directed) view graph."""
        adjacency: Dict[ClientId, set] = {p: set() for p in self.peers}
        for peer, view in self.views.items():
            for entry in view:
                adjacency[peer].add(entry.peer)
                adjacency[entry.peer].add(peer)
        seen = {self.peers[0]}
        frontier = [self.peers[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.peers)
