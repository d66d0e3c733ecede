"""Centralized server lookup — eDonkey's own first tier, as a baseline.

A central index maps every file to its current sources, so any file with at
least one source is found with a single query.  It is the upper bound on
hit rate (and the thing the semantic-neighbour design tries to make
unnecessary); its cost model is one message to the server per request plus
the server's index memory.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.trace.model import ClientId, FileId, StaticTrace


@dataclass
class LookupStats:
    queries: int = 0
    hits: int = 0
    index_entries: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0


class ServerLookup:
    """A central file -> sources index with publish/unpublish.

    The public API speaks string file ids.  Built from a trace, the
    internal index is keyed by the trace's interned file ints — ``_key``
    translates at the boundary, and ids unknown to the intern table
    (published later) fall back to their string key — so bulk
    construction walks the compiled inverted index instead of hashing
    every (client, file-string) pair.
    """

    def __init__(self) -> None:
        self._index: Dict[FileId, Set[ClientId]] = defaultdict(set)
        self._file_index: Optional[Dict[FileId, int]] = None
        self.stats = LookupStats()

    @classmethod
    def from_trace(cls, trace: StaticTrace) -> "ServerLookup":
        lookup = cls()
        compiled = trace.compiled()
        lookup._file_index = compiled.file_index
        for idx in range(compiled.num_files):
            rows = compiled.sharer_rows_of(idx)
            if len(rows):
                lookup._index[idx] = set(compiled.client_ids[r] for r in rows)
        lookup.stats.index_entries += compiled.total_replicas
        return lookup

    def _key(self, file_id: FileId):
        """Internal index key for ``file_id`` (interned when known)."""
        if self._file_index is None:
            return file_id
        return self._file_index.get(file_id, file_id)

    def publish(self, client_id: ClientId, file_id: FileId) -> None:
        self._index[self._key(file_id)].add(client_id)
        self.stats.index_entries += 1

    def unpublish(self, client_id: ClientId, file_id: FileId) -> None:
        key = self._key(file_id)
        sources = self._index.get(key)
        if sources is not None:
            sources.discard(client_id)
            if not sources:
                del self._index[key]

    def lookup(self, file_id: FileId, exclude: Optional[ClientId] = None) -> List[ClientId]:
        """All current sources of ``file_id`` (one round-trip)."""
        self.stats.queries += 1
        sources = [
            c
            for c in sorted(self._index.get(self._key(file_id), set()))
            if c != exclude
        ]
        if sources:
            self.stats.hits += 1
        return sources

    def index_size(self) -> int:
        """Number of live (file, source) entries — the server's memory cost."""
        return sum(len(s) for s in self._index.values())
