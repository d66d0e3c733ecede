"""Fault handling in the semantic client: unanswered probes and orphaning."""

from repro.edonkey.client import Client, ClientConfig
from repro.edonkey.messages import FileDescription
from repro.edonkey.network import Network, NetworkConfig
from repro.edonkey.semantic_client import SemanticClient
from repro.edonkey.server import Server
from repro.faults import FaultConfig
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticWorkloadGenerator


def desc(file_id="f1", size=1000):
    return FileDescription(file_id=file_id, name=file_id, size=size)


def make_network(*clients, faults=None):
    config = NetworkConfig(
        workload=WorkloadConfig().small(), faults=faults or FaultConfig()
    )
    generator = SyntheticWorkloadGenerator(config=config.workload, seed=0)
    generator.build()
    network = Network(generator, config)
    network.add_server(Server(0))
    for client in clients:
        network.add_client(client)
        client.connect(network, 0)
    return network


class TestProbeFailures:
    def test_unreachable_neighbour_stays_listed(self):
        dead = Client(1, "dead", ClientConfig(firewalled=True))
        requester = SemanticClient(2, "dst", list_size=4)
        network = make_network(dead, requester)
        requester.neighbour_list.record_upload(1)
        for name in ("a", "b", "c", "d"):
            requester.locate_and_download(network, desc(name))
        assert 1 in requester.neighbour_list.ordered()
        assert requester.semantic_stats.probe_failures == 4

    def test_lost_probes_count_as_probe_failures(self):
        source = Client(1, "src")
        requester = SemanticClient(2, "dst", list_size=4)
        network = make_network(
            source, requester, faults=FaultConfig(loss_rate=1.0)
        )
        requester.neighbour_list.record_upload(1)
        for name in ("a", "b", "c"):
            requester.locate_and_download(network, desc(name))
        assert 1 in requester.neighbour_list.ordered()
        assert requester.semantic_stats.probe_failures == 3


class TestOrphanedClient:
    def test_server_fallback_gone_fails_gracefully(self):
        requester = SemanticClient(2, "dst")
        network = make_network(requester)
        requester.server_id = None  # its server crashed, nobody survived
        assert not requester.locate_and_download(network, desc("x"))
        assert requester.semantic_stats.downloads_failed == 1
