"""Tests for session churn in the network substrate."""

import dataclasses

import pytest

from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.messages import BrowseRequest, QueryUsers
from repro.edonkey.network import NetworkConfig, build_network
from repro.faults import FaultConfig
from repro.workload.config import WorkloadConfig


def churn_network(seed=11, clients=80, days=8, faults=None):
    workload = dataclasses.replace(
        WorkloadConfig().small(),
        num_clients=clients,
        num_files=1200,
        days=days,
        mainstream_pool_size=80,
        online_alpha=2.0,
        online_beta=2.0,  # mean availability 0.5: heavy churn
    )
    kwargs = {} if faults is None else {"faults": faults}
    return build_network(
        NetworkConfig(
            workload=workload,
            session_churn=True,
            firewalled_fraction=0.0,
            **kwargs,
        ),
        seed=seed,
    )


@pytest.fixture(scope="module")
def network():
    net = churn_network()
    net.advance_day()
    net.advance_day()
    return net


class TestOfflineSemantics:
    def test_some_clients_offline(self, network):
        assert network.offline
        assert len(network.offline) < len(network.clients)

    def test_offline_clients_unreachable(self, network):
        offline_id = next(iter(network.offline))
        reply = network.to_client(offline_id, BrowseRequest(requester_id=-1))
        assert reply is None
        assert network.callback_to_client(
            offline_id, BrowseRequest(requester_id=-1)
        ) is None

    def test_offline_clients_unpublished(self, network):
        sharers_offline = [
            cid
            for cid in network.offline
            if network.clients[cid].shared_file_ids()
        ]
        if not sharers_offline:
            pytest.skip("no offline sharers this seed")
        cid = sharers_offline[0]
        client = network.clients[cid]
        server = network.servers[client.server_id]
        assert not server.connected(cid)

    def test_online_clients_still_reachable(self, network):
        online = [
            cid
            for cid, c in network.clients.items()
            if cid not in network.offline and c.config.browseable
        ]
        assert online
        reply = network.to_client(online[0], BrowseRequest(requester_id=-1))
        assert reply is not None

    def test_nickname_queries_miss_offline_users(self, network):
        offline_id = next(iter(network.offline))
        client = network.clients[offline_id]
        server = network.servers[client.server_id]
        reply = server.handle_query_users(
            QueryUsers(pattern=client.nickname.lower()[:3])
        )
        assert offline_id not in {u[0] for u in reply.users}


class TestReconnection:
    def test_clients_come_back(self):
        net = churn_network(seed=12)
        seen_offline = set()
        returned = set()
        for _ in range(8):
            before = set(net.offline)
            net.advance_day()
            seen_offline |= net.offline
            returned |= before - net.offline
        assert seen_offline
        assert returned, "expected some clients to reconnect"

    def test_returning_sharer_republished(self):
        net = churn_network(seed=13)
        for _ in range(8):
            previously_offline = set(net.offline)
            net.advance_day()
            back = [
                cid
                for cid in previously_offline - net.offline
                if net.clients[cid].shared_file_ids()
            ]
            for cid in back:
                client = net.clients[cid]
                server = net.servers[client.server_id]
                assert server.connected(cid)
            if back:
                return
        pytest.skip("no sharer happened to return this seed")

    def test_lost_reconnect_orphans_the_client(self):
        """A returning client whose reconnect is lost is orphaned and
        re-homed on a later day; it never re-publishes to a server that
        holds no session for it."""
        net = churn_network(
            seed=11, faults=FaultConfig(loss_rate=0.2, slow_rate=0.1)
        )
        for _ in range(6):
            net.advance_day()
            for cid, client in net.clients.items():
                if client.server_id is not None and cid not in net.offline:
                    assert net.servers[client.server_id].connected(cid)
        assert net.faults.stats.clients_reassigned > 0


class TestDeterminism:
    def test_same_seed_same_offline_sets(self):
        """Two fresh networks built from the same seed agree on exactly
        which clients are offline, every single day."""
        first = churn_network(seed=21)
        second = churn_network(seed=21)
        for _ in range(6):
            first.advance_day()
            second.advance_day()
            assert first.offline == second.offline
        assert first.offline  # heavy churn: never trivially empty

    def test_different_seeds_diverge(self):
        first = churn_network(seed=21)
        second = churn_network(seed=22)
        histories = [set(), set()]
        for _ in range(6):
            first.advance_day()
            second.advance_day()
            histories[0] |= first.offline
            histories[1] |= second.offline
        assert histories[0] != histories[1]

    def test_fault_downtime_deterministic_alongside_churn(self):
        """The fault layer's transient-downtime stream is independent of
        the session-churn stream: same seed reproduces both sets."""
        from repro.faults import FaultConfig

        faults = FaultConfig(peer_downtime=0.2)
        first = churn_network(seed=23, faults=faults)
        second = churn_network(seed=23, faults=faults)
        for _ in range(4):
            first.advance_day()
            second.advance_day()
            assert first.offline == second.offline
            assert first.faults.flaky_offline == second.faults.flaky_offline

    def test_fault_downtime_leaves_session_churn_unchanged(self):
        """Turning transient peer downtime on must not perturb which
        clients session churn takes offline — the streams are separate."""
        from repro.faults import FaultConfig

        plain = churn_network(seed=24)
        faulted = churn_network(
            seed=24, faults=FaultConfig(peer_downtime=0.2)
        )
        for _ in range(4):
            plain.advance_day()
            faulted.advance_day()
            assert plain.offline == faulted.offline


class TestCrawlWithChurn:
    def test_crawler_sees_gaps(self):
        net = churn_network(seed=14, days=10)
        crawler = Crawler(
            net,
            CrawlerConfig(days=8, browse_budget_start=500, browse_budget_end=500),
            seed=14,
        )
        trace = crawler.crawl()
        assert trace.num_snapshots > 0
        # With mean availability 0.5, most clients have observation gaps.
        gapped = 0
        observed = 0
        for client_id in trace.clients:
            days = trace.observation_days(client_id)
            if len(days) < 2:
                continue
            observed += 1
            if days[-1] - days[0] + 1 > len(days):
                gapped += 1
        assert observed > 0
        assert gapped / observed > 0.3

    def test_extrapolation_fills_churn_gaps(self):
        from repro.trace.extrapolation import ExtrapolationConfig, extrapolate

        net = churn_network(seed=15, days=10)
        crawler = Crawler(
            net,
            CrawlerConfig(days=8, browse_budget_start=500, browse_budget_end=500),
            seed=15,
        )
        trace = crawler.crawl()
        config = ExtrapolationConfig(min_connections=3, min_span_days=4)
        extrapolated = extrapolate(trace, config)
        # Extrapolation adds synthetic snapshots into the gaps.
        assert extrapolated.num_snapshots >= sum(
            len(trace.observation_days(c)) for c in extrapolated.clients
        )
