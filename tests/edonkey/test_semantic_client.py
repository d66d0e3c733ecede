"""Tests for the live semantic client and its day-loop simulation."""

import dataclasses

import pytest

from repro.edonkey.client import Client, ClientConfig
from repro.edonkey.messages import FileDescription
from repro.edonkey.network import Network, NetworkConfig, build_network
from repro.edonkey.semantic_client import (
    LiveSemanticConfig,
    LiveSemanticSimulation,
    SemanticClient,
    SemanticStats,
)
from repro.edonkey.server import Server
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticWorkloadGenerator


def desc(file_id="f1", size=1000):
    return FileDescription(file_id=file_id, name=file_id, size=size)


def make_network(*clients):
    config = NetworkConfig(workload=WorkloadConfig().small())
    generator = SyntheticWorkloadGenerator(config=config.workload, seed=0)
    generator.build()
    network = Network(generator, config)
    network.add_server(Server(0))
    for client in clients:
        network.add_client(client)
        client.connect(network, 0)
    return network


class TestSemanticClient:
    def test_rejects_random_strategy(self):
        with pytest.raises(ValueError, match="random"):
            SemanticClient(1, "nick", strategy="random")

    def test_semantic_hit_skips_server(self):
        source = Client(1, "src")
        source.share(desc())
        requester = SemanticClient(2, "dst", list_size=4)
        network = make_network(source, requester)
        # Warm the list manually: 1 is a known neighbour.
        requester.neighbour_list.record_upload(1)
        assert requester.locate_and_download(network, desc())
        stats = requester.semantic_stats
        assert stats.semantic_hits == 1
        assert stats.server_lookups == 0
        assert stats.downloads_ok == 1

    def test_cold_list_falls_back_to_server(self):
        source = Client(1, "src")
        source.share(desc())
        requester = SemanticClient(2, "dst")
        network = make_network(source, requester)
        assert requester.locate_and_download(network, desc())
        stats = requester.semantic_stats
        assert stats.semantic_hits == 0
        assert stats.server_lookups == 1

    def test_uploader_learned_after_fallback(self):
        source = Client(1, "src")
        source.share(desc())
        requester = SemanticClient(2, "dst")
        network = make_network(source, requester)
        requester.locate_and_download(network, desc())
        assert 1 in requester.neighbour_list.ordered()

    def test_second_request_from_same_community_hits(self):
        source = Client(1, "src")
        source.share(desc("a"))
        source.share(desc("b"))
        requester = SemanticClient(2, "dst")
        network = make_network(source, requester)
        requester.locate_and_download(network, desc("a"))
        requester.locate_and_download(network, desc("b"))
        assert requester.semantic_stats.semantic_hits == 1
        assert requester.semantic_stats.server_lookups == 1

    def test_missing_file_fails(self):
        requester = SemanticClient(2, "dst")
        network = make_network(requester)
        assert not requester.locate_and_download(network, desc("nowhere"))
        assert requester.semantic_stats.downloads_failed == 1

    def test_firewalled_neighbour_skipped_in_probe(self):
        hidden = Client(1, "hidden", ClientConfig(firewalled=True))
        hidden.share(desc())
        open_source = Client(3, "open")
        open_source.share(desc())
        requester = SemanticClient(2, "dst", list_size=4)
        network = make_network(hidden, open_source, requester)
        requester.neighbour_list.record_upload(1)  # firewalled first
        requester.neighbour_list.record_upload(3)
        assert requester.locate_and_download(network, desc())
        # the probe found the reachable neighbour
        assert requester.semantic_stats.semantic_hits == 1

    def test_stats_avoidance(self):
        stats = SemanticStats(lookups=10, semantic_hits=4)
        assert stats.server_avoidance == pytest.approx(0.4)
        assert SemanticStats().server_avoidance == 0.0


class TestLiveSimulation:
    @pytest.fixture(scope="class")
    def live_network(self):
        workload = dataclasses.replace(
            WorkloadConfig().small(),
            num_clients=80,
            num_files=1200,
            days=8,
            mainstream_pool_size=80,
        )
        return build_network(
            NetworkConfig(workload=workload, semantic_clients=True), seed=5
        )

    def test_requires_semantic_clients(self):
        workload = dataclasses.replace(
            WorkloadConfig().small(), num_clients=20, num_files=300,
            days=3, mainstream_pool_size=20,
        )
        plain = build_network(NetworkConfig(workload=workload), seed=1)
        with pytest.raises(ValueError, match="SemanticClient"):
            LiveSemanticSimulation(plain)

    def test_run_produces_day_series(self, live_network):
        simulation = LiveSemanticSimulation(
            live_network,
            LiveSemanticConfig(days=4, requests_per_client_per_day=2, seed=5),
        )
        result = simulation.run()
        assert result.total_lookups > 0
        assert len(result.avoidance_by_day) == 4
        assert (
            result.total_semantic_hits + result.total_server_lookups
            == result.total_lookups
        )
        assert 0.0 <= result.overall_avoidance <= 1.0

    def test_network_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(semantic_list_size=0)

    def test_experiment_wrapper(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.live_semantic import run_live_semantic

        result = run_live_semantic(
            RunContext(scale=Scale.SMALL, seed=2), days=4, num_clients=60
        )
        assert result.metric("lookups") > 0
        assert 0.0 <= result.metric("overall_server_avoidance") <= 1.0
        assert result.metric("peak_day_avoidance") >= result.metric(
            "first_day_avoidance"
        ) - 0.35
