"""Tests for the Network router itself (routing, stats, error paths)."""

import pytest

from repro.edonkey.client import Client
from repro.edonkey.messages import (
    BrowseRequest,
    ConnectRequest,
    FileDescription,
    Keyword,
    PublishFiles,
    SearchRequest,
    ServerListRequest,
)
from repro.edonkey.network import Network, NetworkConfig
from repro.edonkey.server import Server
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticWorkloadGenerator


@pytest.fixture()
def network():
    config = NetworkConfig(workload=WorkloadConfig().small())
    generator = SyntheticWorkloadGenerator(config=config.workload, seed=0)
    generator.build()
    net = Network(generator, config)
    net.add_server(Server(0))
    net.add_server(Server(1))
    return net


class TestServerRouting:
    def test_unknown_server_returns_none(self, network):
        reply = network.to_server(99, ServerListRequest())
        assert reply is None

    def test_unroutable_server_message_raises(self, network):
        with pytest.raises(TypeError, match="unroutable"):
            network.to_server(0, object())

    def test_publish_returns_none(self, network):
        network.to_server(
            0, ConnectRequest(client_id=1, nickname="n", firewalled=False)
        )
        reply = network.to_server(
            0,
            PublishFiles(
                client_id=1,
                files=[FileDescription(file_id="f", name="f", size=1)],
            ),
        )
        assert reply is None
        search = network.to_server(
            0, SearchRequest(client_id=2, query=Keyword("f"))
        )
        assert [r.file_id for r in search.results] == ["f"]

    def test_server_list_gossip_on_add(self, network):
        reply = network.to_server(0, ServerListRequest())
        assert reply.servers == [0, 1]


class TestClientRouting:
    def test_unknown_client_returns_none(self, network):
        assert network.to_client(12345, BrowseRequest(requester_id=1)) is None

    def test_unroutable_client_message_raises(self, network):
        client = Client(5, "nick")
        network.add_client(client)
        with pytest.raises(TypeError, match="unroutable"):
            network.to_client(5, object())

    def test_stats_count_every_delivery_attempt(self, network):
        before = network.stats.total()
        network.to_client(777, BrowseRequest(requester_id=1))  # unknown
        network.to_server(0, ServerListRequest())
        assert network.stats.total() == before + 2

    def test_cache_indices_empty_for_unknown(self, network):
        assert network.cache_indices(424242) == set()


class TestSeedInitialCaches:
    def test_publishes_to_servers(self, network):
        # Attach protocol clients for a few sharer profiles and seed.
        sharers = [
            p for p in network.generator.profiles if not p.free_rider
        ][:5]
        for profile in sharers:
            client = Client(profile.meta.client_id, profile.meta.nickname)
            network.add_client(client)
            client.connect(network, 0)
        network.seed_initial_caches()
        published = sum(
            1
            for profile in sharers
            if network.clients[profile.meta.client_id].shared_file_ids()
        )
        assert published > 0
        # the server can resolve sources for a published file
        some_client = next(
            network.clients[p.meta.client_id]
            for p in sharers
            if network.clients[p.meta.client_id].shared_file_ids()
        )
        fid = next(iter(some_client.shared_file_ids()))
        other = Client(99999, "probe")
        network.add_client(other)
        other.connect(network, 0)
        assert some_client.client_id in other.find_sources(network, fid)


class TestOneDescriptionPerFile:
    def test_tiny_network_holds_one_object_per_file_id(self):
        from repro.edonkey.network import build_network
        from repro.runtime import Scale, workload_config

        network = build_network(
            NetworkConfig(workload=workload_config(Scale.TINY)), seed=3
        )
        network.advance_day()
        held = {}
        for client in network.clients.values():
            for shared in client.cache.values():
                held.setdefault(shared.description.file_id, set()).add(
                    id(shared.description)
                )
        for server in network.servers.values():
            for session in server._sessions.values():
                for file_id, desc in session.files.items():
                    held.setdefault(file_id, set()).add(id(desc))
            for file_id, desc in server._descriptions.items():
                held.setdefault(file_id, set()).add(id(desc))
        assert held
        assert all(len(objects) == 1 for objects in held.values())
