"""Semantic links in the eDonkey client — the paper's announced follow-up.

The conclusion of the paper: *"We have now started an implementation of
semantic links in an eDonkey client, MLdonkey, and will soon report
results on their efficiency."*  This module is that client, built on the
protocol substrate: a :class:`SemanticClient` keeps a bounded list of
semantic neighbours (any strategy from :mod:`repro.core.neighbours`) and
tries them — with direct ``FileStatusRequest`` probes — *before* asking
the server for sources.  Every successful download feeds the uploader
back into the list.

:class:`LiveSemanticSimulation` drives a whole network of such clients
day by day and measures what the design brief cares about: the fraction
of lookups the index server never sees, and how fast it grows as the
lists warm up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.neighbours import NeighbourStrategy, make_strategy
from repro.edonkey.client import Client, ClientConfig
from repro.edonkey.messages import FileDescription, FileStatusRequest
from repro.util.cdf import Series
from repro.util.rng import RngStream
from repro.util.validation import check_positive


@dataclass
class SemanticStats:
    """Per-client lookup accounting."""

    lookups: int = 0
    semantic_hits: int = 0  # found via a semantic neighbour, no server
    server_lookups: int = 0  # had to fall back to the server
    downloads_ok: int = 0
    downloads_failed: int = 0
    probe_failures: int = 0  # neighbour probes that got no answer


class SemanticClient(Client):
    """An eDonkey client with a semantic neighbour list.

    ``strategy`` is any non-random strategy name from
    :mod:`repro.core.neighbours` (``lru``, ``history``, ``popularity``).
    """

    def __init__(
        self,
        client_id: int,
        nickname: str,
        config: Optional[ClientConfig] = None,
        strategy: str = "lru",
        list_size: int = 10,
    ) -> None:
        super().__init__(client_id, nickname, config)
        if strategy == "random":
            raise ValueError(
                "the random benchmark strategy is simulation-only; a live "
                "client needs a learnable list (lru/history/popularity)"
            )
        self.neighbour_list: NeighbourStrategy = make_strategy(strategy, list_size)
        self.semantic_stats = SemanticStats()

    # ------------------------------------------------------------------

    def _probe_neighbours(self, transport, file_id: str) -> Optional[int]:
        """Ask semantic neighbours directly whether they share ``file_id``.

        An unanswered probe (offline, crashed, firewalled, or lost to the
        fault layer) counts in ``probe_failures``; the neighbour stays in
        the list."""
        for neighbour in list(self.neighbour_list.ordered()):
            status = transport.to_client(neighbour, FileStatusRequest(file_id=file_id))
            if status is None:
                self.semantic_stats.probe_failures += 1
                continue
            if status.available:
                return neighbour
        return None

    def locate_and_download(self, transport, description: FileDescription) -> bool:
        """The semantic lookup path: neighbours first, server second.

        Returns True when the file was downloaded and verified.  The
        uploader — semantic or server-found — is recorded in the
        neighbour list either way, which is how the list bootstraps.
        """
        stats = self.semantic_stats
        stats.lookups += 1

        source = self._probe_neighbours(transport, description.file_id)
        if source is not None:
            stats.semantic_hits += 1
            sources = [source]
            popularity = 1
        else:
            stats.server_lookups += 1
            if self.server_id is None:
                # Orphaned by a server crash with no surviving server to
                # re-home to: the fallback path is gone this round.
                stats.downloads_failed += 1
                return False
            sources = self.find_sources(transport, description.file_id)
            popularity = len(sources)
            if not sources:
                stats.downloads_failed += 1
                return False

        ok = self.download(transport, description, sources=sources)
        if ok:
            stats.downloads_ok += 1
            self.neighbour_list.record_upload(
                sources[0], popularity=max(1, popularity)
            )
        else:
            stats.downloads_failed += 1
        return ok


@dataclass
class LiveSemanticConfig:
    """Day loop parameters for the live simulation."""

    days: int = 10
    requests_per_client_per_day: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("days", self.days)
        check_positive("requests_per_client_per_day", self.requests_per_client_per_day)


@dataclass
class LiveSemanticResult:
    """Outcome of a live run."""

    avoidance_by_day: Series
    total_lookups: int
    total_semantic_hits: int
    total_server_lookups: int
    download_success_rate: float
    per_client_stats: Dict[int, SemanticStats] = field(default_factory=dict)

    @property
    def overall_avoidance(self) -> float:
        if self.total_lookups == 0:
            return 0.0
        return self.total_semantic_hits / self.total_lookups


class LiveSemanticSimulation:
    """Drives a network of :class:`SemanticClient` peers day by day.

    The network must have been built with semantic clients (see
    ``NetworkConfig.semantic_clients``).  Each day, every non-free-riding
    client issues a few requests for files drawn from its interest
    profile and resolves them through the semantic path; then the network
    advances a day (churn + republish).
    """

    def __init__(self, network, config: Optional[LiveSemanticConfig] = None) -> None:
        self.network = network
        self.config = config or LiveSemanticConfig()
        self.rng = RngStream(self.config.seed, "live-semantic")
        self._clients: List[SemanticClient] = [
            client
            for client in network.clients.values()
            if isinstance(client, SemanticClient)
        ]
        if not self._clients:
            raise ValueError(
                "network has no SemanticClient peers; build it with "
                "NetworkConfig(semantic_clients=True)"
            )
        self._profiles = {
            p.meta.client_id: p for p in network.generator.profiles
        }

    def _requesters(self) -> List[SemanticClient]:
        return [
            client
            for client in self._clients
            if not self._profiles[client.client_id].free_rider
            and not client.config.firewalled
        ]

    def _draw_request(self, client: SemanticClient, day: int) -> Optional[FileDescription]:
        profile = self._profiles[client.client_id]
        generator = self.network.generator
        exclude = {
            i
            for i in range(len(generator.files))
            if generator.files[i].file_id in client.cache
        }
        rng = self.rng.child(f"req[{client.client_id}/{day}]")
        index = generator.draw_request(profile, day, rng, exclude)
        if index is None:
            return None
        meta = generator.file_meta(index)
        return FileDescription(
            file_id=meta.file_id,
            name=meta.name or meta.file_id,
            size=meta.size,
            kind=meta.kind,
        )

    def run(self) -> LiveSemanticResult:
        avoidance = Series(name="server avoidance (%)")
        for day_offset in range(self.config.days):
            day = self.network.day
            day_lookups = 0
            day_semantic = 0
            for client in self._requesters():
                for _ in range(self.config.requests_per_client_per_day):
                    description = self._draw_request(client, day)
                    if description is None:
                        continue
                    before = client.semantic_stats.semantic_hits
                    client.locate_and_download(self.network, description)
                    day_lookups += 1
                    if client.semantic_stats.semantic_hits > before:
                        day_semantic += 1
            if day_lookups:
                avoidance.append(day_offset, 100.0 * day_semantic / day_lookups)
            self.network.advance_day()

        total_lookups = sum(c.semantic_stats.lookups for c in self._clients)
        total_semantic = sum(c.semantic_stats.semantic_hits for c in self._clients)
        total_server = sum(c.semantic_stats.server_lookups for c in self._clients)
        ok = sum(c.semantic_stats.downloads_ok for c in self._clients)
        failed = sum(c.semantic_stats.downloads_failed for c in self._clients)
        return LiveSemanticResult(
            avoidance_by_day=avoidance,
            total_lookups=total_lookups,
            total_semantic_hits=total_semantic,
            total_server_lookups=total_server,
            download_success_rate=ok / max(1, ok + failed),
            per_client_stats={
                c.client_id: c.semantic_stats for c in self._clients
            },
        )
