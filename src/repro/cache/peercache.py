"""AS-level index and content caches, driven by the Section 5.1 request
stream.

The simulation replays the same request sequence as the search simulator
(every cached file of every peer requested once, first requester =
contributor).  For each actual request it asks: could this download have
stayed inside the requester's autonomous system?

- *index mode*: yes iff some peer of the same AS currently shares the
  file (no storage at the operator at all);
- *content mode*: yes iff the AS's content cache holds the file; on a
  miss the file is fetched externally and inserted (LRU eviction under a
  per-AS byte budget).

Intra-AS service in index mode is a *structural* property of the
workload — it measures the geographic clustering of Figures 11/12 —
while content-mode hit rates measure classic cacheability (Zipf head
reuse).
"""

from __future__ import annotations

from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.requests import generate_requests
from repro.trace.model import ClientId, FileId, StaticTrace
from repro.util.rng import RngStream
from repro.util.validation import check_positive


class AsIndexCache:
    """Per-AS inverted index: file -> local sharers (no content stored)."""

    def __init__(self, asn: int) -> None:
        self.asn = asn
        self._sources: Dict[FileId, Set[ClientId]] = defaultdict(set)
        self.hits = 0
        self.misses = 0

    def publish(self, client_id: ClientId, file_id: FileId) -> None:
        self._sources[file_id].add(client_id)

    def lookup(self, file_id: FileId, exclude: Optional[ClientId] = None) -> bool:
        sources = self._sources.get(file_id)
        found = bool(sources) and (exclude is None or sources - {exclude})
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return bool(found)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def index_entries(self) -> int:
        return sum(len(s) for s in self._sources.values())


class AsContentCache:
    """Per-AS LRU content cache under a byte budget."""

    def __init__(self, asn: int, capacity_bytes: int) -> None:
        check_positive("capacity_bytes", capacity_bytes)
        self.asn = asn
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[FileId, int]" = OrderedDict()  # fid -> size
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.bytes_served = 0
        self.bytes_fetched = 0
        self.evictions = 0

    def request(self, file_id: FileId, size: int) -> bool:
        """Serve a request; returns True on a cache hit.

        Misses insert the file (fetched over the transit link).  Files
        larger than the whole cache are fetched but never stored.
        """
        if file_id in self._entries:
            self._entries.move_to_end(file_id)
            self.hits += 1
            self.bytes_served += size
            return True
        self.misses += 1
        self.bytes_fetched += size
        if size > self.capacity_bytes:
            return False
        while self.used_bytes + size > self.capacity_bytes and self._entries:
            _, evicted_size = self._entries.popitem(last=False)
            self.used_bytes -= evicted_size
            self.evictions += 1
        self._entries[file_id] = size
        self.used_bytes += size
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PeerCacheConfig:
    """Simulation parameters."""

    mode: str = "index"  # "index" | "content"
    capacity_bytes: int = 50 * 1024**3  # per-AS budget (content mode)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("index", "content"):
            raise ValueError(f"mode must be 'index' or 'content', got {self.mode!r}")
        check_positive("capacity_bytes", self.capacity_bytes)


@dataclass
class PeerCacheResult:
    """Aggregate and per-AS outcomes."""

    mode: str
    requests: int
    intra_as_hits: int
    bytes_total: int
    bytes_kept_local: int
    per_as_hit_rate: Dict[int, float] = field(default_factory=dict)
    per_as_requests: Dict[int, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.intra_as_hits / self.requests if self.requests else 0.0

    @property
    def byte_locality(self) -> float:
        return self.bytes_kept_local / self.bytes_total if self.bytes_total else 0.0

    def top_as_rows(self, k: int = 5) -> List[Tuple[int, int, float]]:
        """``(asn, requests, hit_rate)`` for the busiest ASes."""
        busiest = sorted(
            self.per_as_requests, key=lambda a: -self.per_as_requests[a]
        )[:k]
        return [
            (asn, self.per_as_requests[asn], self.per_as_hit_rate.get(asn, 0.0))
            for asn in busiest
        ]


def simulate_peercache(
    trace: StaticTrace, config: Optional[PeerCacheConfig] = None
) -> PeerCacheResult:
    """Replay the request stream through per-AS caches."""
    config = config or PeerCacheConfig()
    rng = RngStream(config.seed, "peercache")

    as_of: Dict[ClientId, int] = {
        c: meta.asn for c, meta in trace.clients.items()
    }
    size_of: Dict[FileId, int] = {
        fid: meta.size for fid, meta in trace.files.items()
    }

    index_caches: Dict[int, AsIndexCache] = {}
    content_caches: Dict[int, AsContentCache] = {}

    def index_cache(asn: int) -> AsIndexCache:
        cache = index_caches.get(asn)
        if cache is None:
            cache = AsIndexCache(asn)
            index_caches[asn] = cache
        return cache

    def content_cache(asn: int) -> AsContentCache:
        cache = content_caches.get(asn)
        if cache is None:
            cache = AsContentCache(asn, config.capacity_bytes)
            content_caches[asn] = cache
        return cache

    sharers_of: Dict[FileId, List[ClientId]] = defaultdict(list)
    requests = 0
    intra_hits = 0
    bytes_total = 0
    bytes_local = 0
    per_as_requests: Counter = Counter()
    per_as_hits: Counter = Counter()

    for request in generate_requests(trace, rng.child("requests")):
        peer, fid = request.peer, request.file_id
        asn = as_of.get(peer)
        size = size_of.get(fid, 0)
        if not sharers_of[fid]:
            # Original contribution: the file appears; publish locally.
            sharers_of[fid].append(peer)
            if asn is not None:
                index_cache(asn).publish(peer, fid)
            continue

        requests += 1
        bytes_total += size
        if asn is not None:
            per_as_requests[asn] += 1
            if config.mode == "index":
                hit = index_cache(asn).lookup(fid, exclude=peer)
            else:
                hit = content_cache(asn).request(fid, size)
            if hit:
                intra_hits += 1
                bytes_local += size
                per_as_hits[asn] += 1
        # The requester becomes a source either way.
        sharers_of[fid].append(peer)
        if asn is not None:
            index_cache(asn).publish(peer, fid)

    per_as_hit_rate = {
        asn: per_as_hits[asn] / count
        for asn, count in per_as_requests.items()
        if count
    }
    return PeerCacheResult(
        mode=config.mode,
        requests=requests,
        intra_as_hits=intra_hits,
        bytes_total=bytes_total,
        bytes_kept_local=bytes_local,
        per_as_hit_rate=per_as_hit_rate,
        per_as_requests=dict(per_as_requests),
    )
