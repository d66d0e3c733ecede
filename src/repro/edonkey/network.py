"""The simulated eDonkey network: message router + day clock + builder.

The network owns servers and clients, routes messages between them
(counting traffic), refuses inbound client connections to firewalled peers,
and advances a day clock under which client caches churn (content comes
from a :class:`~repro.workload.generator.SyntheticWorkloadGenerator`, so the
substrate and the statistical generator share one content model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.edonkey.client import Client, ClientConfig
from repro.faults import FaultConfig, FaultInjector, FaultSchedule
from repro.edonkey.messages import FileDescription, MessageStats
from repro.edonkey.protocol import (
    ClientProtocolHandler,
    ServerProtocolHandler,
)
from repro.edonkey.server import Server, ServerConfig
from repro.obs import NULL_OBSERVER, Observer
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticWorkloadGenerator


@dataclass
class NetworkConfig:
    """Topology and behaviour of the simulated network."""

    num_servers: int = 3
    firewalled_fraction: float = 0.25
    browse_disabled_fraction: float = 0.15
    query_users_support_fraction: float = 0.7  # fraction of *old* servers
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    # Live semantic-links extension (the paper's announced MLdonkey work):
    # build SemanticClient peers instead of plain clients.
    semantic_clients: bool = False
    semantic_strategy: str = "lru"
    semantic_list_size: int = 10
    # Failure injection: fraction of clients whose uploads are corrupted
    # (bad block checksums).  Downloaders detect the corruption via the
    # MD4 block hashes and retry other sources.
    corrupt_fraction: float = 0.0
    # Hostile-network fault model (message loss, timeouts, malformed
    # replies, transient peer downtime, server crashes).  All knobs off by
    # default, in which case the injector is never consulted.
    faults: FaultConfig = field(default_factory=FaultConfig)
    # Optional time-varying overrides on top of ``faults``: day windows
    # that ramp loss, burst churn, or crash servers repeatedly (see
    # :mod:`repro.faults.schedule`).  A schedule whose windows carry no
    # overrides is byte-identical to no schedule at all.
    fault_schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        check_positive("num_servers", self.num_servers)
        check_fraction("firewalled_fraction", self.firewalled_fraction)
        check_fraction("browse_disabled_fraction", self.browse_disabled_fraction)
        check_fraction(
            "query_users_support_fraction", self.query_users_support_fraction
        )
        check_positive("semantic_list_size", self.semantic_list_size)
        check_fraction("corrupt_fraction", self.corrupt_fraction)


class Network:
    """Routes messages, tracks traffic, and advances simulated days."""

    def __init__(
        self,
        generator: SyntheticWorkloadGenerator,
        config: NetworkConfig,
        obs: Optional[Observer] = None,
    ) -> None:
        self.config = config
        self.generator = generator
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.servers: Dict[int, Server] = {}
        self.clients: Dict[int, Client] = {}
        # Per-target protocol handlers (the handler layer of the message
        # plane).  Constructed observer-less: the sim's metric surface
        # (``network/*`` hop counters) predates the handler layer and is
        # pinned by committed baselines; per-message protocol metrics
        # are recorded by the live service's handler instead.
        self._server_handlers: Dict[int, ServerProtocolHandler] = {}
        self._client_handlers: Dict[int, ClientProtocolHandler] = {}
        self.stats = MessageStats()
        self.day = generator.config.start_day
        self._caches: Dict[int, Set[int]] = {}  # client -> file indices
        # client -> the keys of its cache, in order, as the network last
        # left them; a cache still equal to these churns by difference
        self._synced: Dict[int, Tuple[str, ...]] = {}
        # file index -> its description, one object for every client
        # sharing the file, so re-publishes compare descriptions by identity
        self._descriptions: Dict[int, FileDescription] = {}
        self._churn_rng = generator.rng.child("network-churn")
        self.faults = FaultInjector(
            config.faults,
            generator.rng.child("network-faults"),
            schedule=config.fault_schedule,
        )
        self.down_servers: Set[int] = set()
        self._day_index = 0  # days elapsed since the build day

    # ------------------------------------------------------------------
    # Routing

    def add_server(self, server: Server) -> None:
        self.servers[server.server_id] = server
        self._server_handlers[server.server_id] = ServerProtocolHandler(server)
        for other in self.servers.values():
            other.learn_servers(self.servers.keys())

    def add_client(self, client: Client) -> None:
        self.clients[client.client_id] = client
        self._client_handlers[client.client_id] = ClientProtocolHandler(client)

    def to_server(self, server_id: int, message):
        """Deliver a message to a server; returns the reply (or None).

        Crashed servers and messages the fault injector drops both yield
        ``None`` — from the sender's side a dead server and a lost
        message are indistinguishable, which is exactly what the retry
        machinery has to cope with."""
        sent = self.stats.sent  # MessageStats.count, inline: once per hop
        name = type(message).__name__
        sent[name] = sent.get(name, 0) + 1
        if self.obs.enabled:
            self.obs.count("network/server_hops")
            self.obs.instant(name, cat="hop")
        handler = self._server_handlers.get(server_id)
        if handler is None:
            return None
        if server_id in self.down_servers:
            self.faults.stats.server_down_messages += 1
            return None
        return self.faults.filtered_dispatch(message, handler.handle)

    def to_client(self, client_id: int, message):
        """Deliver a message to a client over a direct TCP connection.

        Returns ``None`` when the connection cannot be established — the
        target is unknown or sits behind a firewall (low-ID).  The server-
        mediated callback that real eDonkey uses for firewalled *sources*
        is modelled in :meth:`callback_to_client`.
        """
        self.stats.count(message)
        if self.obs.enabled:
            self.obs.count("network/client_hops")
            self.obs.instant(type(message).__name__, cat="hop")
        client = self.clients.get(client_id)
        if client is None or client.config.firewalled:
            return None
        return self._deliver_to_client(client, message)

    def callback_to_client(self, client_id: int, message):
        """Deliver via the server-forced callback (reaches firewalled peers)."""
        self.stats.count(message)
        if self.obs.enabled:
            self.obs.count("network/callback_hops")
            self.obs.instant(type(message).__name__, cat="hop")
        client = self.clients.get(client_id)
        if client is None:
            return None
        return self._deliver_to_client(client, message)

    def _deliver_to_client(self, client: Client, message):
        """Apply the fault model to a client-bound hop, then dispatch."""
        handler = self._client_handlers[client.client_id]
        if self.faults.enabled and self.faults.peer_unreachable(
            client.client_id
        ):
            return None
        return self.faults.filtered_dispatch(message, handler.handle)

    # ------------------------------------------------------------------
    # Day clock / content churn

    def cache_indices(self, client_id: int) -> Set[int]:
        return set(self._caches.get(client_id, set()))

    def advance_day(self) -> None:
        """Advance the clock one day: apply the fault schedule (crashes,
        recoveries, transient peer downtime), then churn every sharer's
        cache and republish to its server."""
        with self.obs.span("network/advance_day"):
            self.day += 1
            self._day_index += 1
            # ``active`` (not ``enabled``): a scheduled injector may be
            # quiet today but still needs advance_day to apply the
            # window overrides for the new day.
            if self.faults.active:
                self._apply_fault_schedule()
            profiles = {p.meta.client_id: p for p in self.generator.profiles}
            for client_id, client in self.clients.items():
                profile = profiles.get(client_id)
                if profile is None or profile.free_rider:
                    continue
                cache = self._caches.setdefault(client_id, set())
                before = set(cache)
                rng = self._churn_rng.child(f"day[{self.day}]/c[{client_id}]")
                self.generator.churn_cache(profile, cache, self.day, rng)
                self._apply_churn(client, before, cache)
                if client.server_id is not None:
                    client.publish(self)

    def export_metrics(self) -> None:
        """Fold the network's existing accounting into the observer.

        Message traffic (:class:`~repro.edonkey.messages.MessageStats`)
        and fault outcomes (:class:`~repro.faults.stats.FaultStats`) are
        already counted by their owners; this surfaces both through the
        observability layer under stable prefixes instead of keeping a
        second set of live counters.
        """
        if not self.obs.enabled:
            return
        self.obs.merge_counters(self.stats.sent, prefix="network/messages/")
        fault_counters = self.faults.stats.as_dict()
        self.obs.gauge(
            "faults/delivery_rate", fault_counters.pop("delivery_rate")
        )
        self.obs.merge_counters(fault_counters, prefix="faults/")

    # ------------------------------------------------------------------
    # Fault schedule (server crashes, transient peer downtime)

    def _apply_fault_schedule(self) -> None:
        """Run the injector's schedule for the new day.

        Recoveries are processed before crashes so a ``0``-day downtime
        cannot resurrect a server on its own crash day, and orphaned
        clients (whose reconnect attempts all failed earlier) retry
        daily — the graceful-degradation loop."""
        self.faults.advance_day(self._day_index, self.clients.keys())
        crashes, recoveries = self.faults.server_events(self._day_index)
        for server_id in recoveries:
            if server_id in self.down_servers:
                self.down_servers.discard(server_id)
                self.faults.stats.server_recoveries += 1
        for server_id in crashes:
            self._crash_server(server_id)
        self._reconnect_orphans()

    def _crash_server(self, server_id: int) -> None:
        """Crash a server: its state is lost and its clients orphaned."""
        server = self.servers.get(server_id)
        if server is None or server_id in self.down_servers:
            return
        server.crash()
        self.down_servers.add(server_id)
        self.faults.stats.server_crashes += 1
        for client in self.clients.values():
            if client.server_id == server_id:
                client.server_id = None

    def _reconnect_orphans(self) -> None:
        """Re-home clients that lost their server to a crash."""
        survivors = [
            sid for sid in sorted(self.servers) if sid not in self.down_servers
        ]
        if not survivors:
            return
        for client_id in sorted(self.clients):
            client = self.clients[client_id]
            if client.server_id is not None:
                continue
            for server_id in survivors:
                if client.connect(self, server_id):
                    self.faults.stats.clients_reassigned += 1
                    break

    def _apply_churn(
        self, client: Client, before: Set[int], after: Set[int]
    ) -> None:
        """Take ``client``'s cache from the index set ``before`` to
        ``after`` by difference.

        The evicted ids are unshared and the added ones shared in
        ascending index order, so the cache ends as
        :meth:`_sync_client_cache` leaves it: kept entries stay where
        they are and new ones follow in that order.  A cache that is not
        exactly as the network left it (a download added a file) is
        synced in full instead."""
        if tuple(client.cache) != self._synced.get(client.client_id):
            self._sync_client_cache(client, after)
            return
        files = self.generator.files
        for index in before - after:
            client.unshare(files[index].file_id)
        for index in sorted(after - before):
            client.share(self._description(index))
        self._synced[client.client_id] = tuple(client.cache)

    def _sync_client_cache(self, client: Client, indices: Set[int]) -> None:
        # Sorted iteration: ``indices`` is a set, and set iteration order
        # can legally change across a pickle round-trip (the rebuilt hash
        # table is compacted).  The client's insertion-ordered cache dict
        # feeds BrowseReply payloads and ultimately the trace's file
        # order, so resume-equivalence needs a canonical order here.
        descriptions = {}
        for index in sorted(indices):
            desc = self._description(index)
            descriptions[desc.file_id] = desc
        # Drop files no longer shared, add new ones as complete.
        for file_id in list(client.cache):
            if file_id not in descriptions:
                client.unshare(file_id)
        for file_id, desc in descriptions.items():
            if file_id not in client.cache:
                client.share(desc)
        self._synced[client.client_id] = tuple(client.cache)

    def _description(self, index: int) -> FileDescription:
        """The one description object of file ``index``."""
        desc = self._descriptions.get(index)
        if desc is None:
            desc = FileDescription.of(self.generator.file_meta(index))
            self._descriptions[index] = desc
        return desc

    def check_invariants(self) -> List[str]:
        """Cross-layer consistency checks; returns problems (empty = ok).

        Run by ``repro crawl --resume`` on the restored network: a
        checkpoint that restored half the object graph (a session
        without its client, a cache set disagreeing with the client's
        shared dict) surfaces here instead of as a silently divergent
        trace.  Only the *forward* session direction is checked: every
        session must belong to a known client that points at its
        server.  An orphan whose connect is lost stays orphaned
        (``server_id`` None) rather than pointing at a server without
        its session, but a connect that timed out after the
        server accepted it leaves a session its client never learnt of,
        which this check reports.
        """
        problems: List[str] = []
        for server_id, server in self.servers.items():
            if server_id in self.down_servers:
                if server.num_users:
                    problems.append(
                        f"down server {server_id} still has "
                        f"{server.num_users} sessions"
                    )
                continue
            problems.extend(server.check_invariants())
            for client_id in list(server._sessions):
                client = self.clients.get(client_id)
                if client is None:
                    problems.append(
                        f"server {server_id} has a session for unknown "
                        f"client {client_id}"
                    )
                    continue
                if client.server_id != server_id:
                    problems.append(
                        f"client {client_id} has a session on server "
                        f"{server_id} but points at {client.server_id}"
                    )
        for client_id, indices in self._caches.items():
            client = self.clients.get(client_id)
            if client is None:
                problems.append(f"cache entry for unknown client {client_id}")
                continue
            expected = {
                self.generator.file_meta(idx).file_id for idx in indices
            }
            actual = set(client.cache)
            if expected != actual:
                missing = sorted(expected - actual)[:3]
                extra = sorted(actual - expected)[:3]
                problems.append(
                    f"client {client_id} cache disagrees with the "
                    f"network's index set (missing={missing}, "
                    f"extra={extra})"
                )
        return problems

    def seed_initial_caches(self) -> None:
        """Fill every sharer's cache as of the current day and publish."""
        if self.faults.active:
            # Day 0 of the fault schedule (a crash on the build day is a
            # legal scenario; transient downtime applies from day 0 too).
            self._apply_fault_schedule()
        for profile in self.generator.profiles:
            client = self.clients.get(profile.meta.client_id)
            if client is None or profile.free_rider:
                continue
            rng = self._churn_rng.child(f"seed/c[{profile.meta.client_id}]")
            cache = self.generator.initial_cache(profile, self.day, rng)
            self._caches[profile.meta.client_id] = cache
            self._sync_client_cache(client, cache)
            if client.server_id is not None:
                client.publish(self)


def build_network(
    config: Optional[NetworkConfig] = None,
    seed: Optional[int] = None,
    obs: Optional[Observer] = None,
) -> Network:
    """Construct a fully connected network: servers, clients (with caches
    published) and server-list gossip, ready for a crawler run."""
    if seed is None:
        seed = 0
    config = config or NetworkConfig()
    generator = SyntheticWorkloadGenerator(config=config.workload, seed=seed)
    generator.build()
    network = Network(generator, config, obs=obs)
    rng = RngStream(seed, "network")

    for i in range(config.num_servers):
        supports = rng.py.random() < config.query_users_support_fraction
        server = Server(
            server_id=i,
            config=ServerConfig(supports_query_users=supports),
        )
        network.add_server(server)

    server_ids = sorted(network.servers)
    for profile in generator.profiles:
        client_config = ClientConfig(
            firewalled=rng.py.random() < config.firewalled_fraction,
            browseable=rng.py.random() >= config.browse_disabled_fraction,
            corrupts_uploads=rng.py.random() < config.corrupt_fraction,
        )
        if config.semantic_clients:
            from repro.edonkey.semantic_client import SemanticClient

            client: Client = SemanticClient(
                client_id=profile.meta.client_id,
                nickname=profile.meta.nickname,
                config=client_config,
                strategy=config.semantic_strategy,
                list_size=config.semantic_list_size,
            )
        else:
            client = Client(
                client_id=profile.meta.client_id,
                nickname=profile.meta.nickname,
                config=client_config,
            )
        network.add_client(client)
        client.connect(network, server_ids[profile.meta.client_id % len(server_ids)])

    network.seed_initial_caches()
    return network
