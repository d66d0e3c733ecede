"""Tests for search on a multi-server network and callbacks."""

import pytest

from repro.edonkey.client import Client
from repro.edonkey.messages import (
    CallbackRequest,
    FileDescription,
    Keyword,
)
from repro.edonkey.network import Network, NetworkConfig
from repro.edonkey.server import Server
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticWorkloadGenerator


def desc(file_id, name):
    return FileDescription(file_id=file_id, name=name, size=1000)


def make_multi_server_network(num_servers=3):
    config = NetworkConfig(workload=WorkloadConfig().small())
    generator = SyntheticWorkloadGenerator(config=config.workload, seed=0)
    generator.build()
    network = Network(generator, config)
    for i in range(num_servers):
        network.add_server(Server(i))
    return network


class TestSearch:
    def test_search_before_connect(self):
        network = make_multi_server_network()
        client = Client(5, "x")
        network.add_client(client)
        with pytest.raises(RuntimeError):
            client.search(network, Keyword("x"))


class TestCallback:
    def test_server_grants_callback_for_session(self):
        network = make_multi_server_network(num_servers=1)
        client = Client(1, "fw")
        network.add_client(client)
        client.connect(network, 0)
        granted = network.to_server(
            0, CallbackRequest(requester_id=9, target_id=1)
        )
        assert granted is True

    def test_server_denies_unknown_target(self):
        network = make_multi_server_network(num_servers=1)
        granted = network.to_server(
            0, CallbackRequest(requester_id=9, target_id=42)
        )
        assert granted is False

    def test_message_stats_count_callbacks(self):
        network = make_multi_server_network(num_servers=1)
        network.to_server(0, CallbackRequest(requester_id=1, target_id=2))
        assert network.stats.sent["CallbackRequest"] == 1
