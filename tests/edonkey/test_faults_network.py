"""Fault injection threaded through the network, server, and crawler."""

import dataclasses

import pytest

from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.network import NetworkConfig, build_network
from repro.faults import FaultConfig, RetryPolicy
from repro.workload.config import WorkloadConfig


def tiny_network_config(**kwargs):
    workload = dataclasses.replace(
        WorkloadConfig().small(),
        num_clients=60,
        num_files=800,
        days=8,
        mainstream_pool_size=60,
    )
    defaults = dict(num_servers=2, workload=workload)
    defaults.update(kwargs)
    return NetworkConfig(**defaults)


def run_crawl(network_config, crawler_config=None, seed=5, days=4):
    network = build_network(network_config, seed=seed)
    crawler = Crawler(
        network,
        crawler_config
        or CrawlerConfig(days=days, browse_budget_start=500, browse_budget_end=400),
        seed=seed,
    )
    trace = crawler.crawl(days)
    return network, crawler, trace


def snapshot_tuples(trace):
    return [
        (s.day, s.client_id, tuple(sorted(s.file_ids)))
        for s in trace.iter_snapshots()
    ]


class TestNoOpGuarantee:
    def test_disabled_faults_never_consult_injector(self):
        network, _, _ = run_crawl(tiny_network_config())
        assert not network.faults.enabled
        assert network.faults.stats.messages_total == 0
        assert network.faults.stats.faults_injected == 0

    def test_retry_policy_is_inert_on_a_clean_network(self):
        """With every fault knob at zero, turning the retry machinery on
        must not change a single snapshot: nothing fails, so nothing
        retries."""
        plain = run_crawl(tiny_network_config())
        retried = run_crawl(
            tiny_network_config(),
            CrawlerConfig(
                days=4,
                browse_budget_start=500,
                browse_budget_end=400,
                retry=RetryPolicy(max_retries=3),
            ),
        )
        assert snapshot_tuples(plain[2]) == snapshot_tuples(retried[2])
        assert retried[1].stats.browse_retries == 0
        assert retried[1].stats.query_retries == 0


class TestDeterminism:
    FAULTS = FaultConfig(
        loss_rate=0.05, malformed_rate=0.02, peer_downtime=0.1,
        server_crash_day=1,
    )

    def test_same_seed_same_faults_same_everything(self):
        runs = [
            run_crawl(
                tiny_network_config(faults=self.FAULTS),
                CrawlerConfig(
                    days=4,
                    browse_budget_start=500,
                    browse_budget_end=400,
                    retry=RetryPolicy(max_retries=2),
                ),
            )
            for _ in range(2)
        ]
        (_, crawler_a, trace_a), (_, crawler_b, trace_b) = runs
        assert snapshot_tuples(trace_a) == snapshot_tuples(trace_b)
        assert runs[0][0].faults.stats == runs[1][0].faults.stats
        assert crawler_a.stats == crawler_b.stats

    def test_flaky_sets_agree_across_fresh_networks(self):
        config = tiny_network_config(faults=FaultConfig(peer_downtime=0.2))
        first = build_network(config, seed=11)
        second = build_network(config, seed=11)
        for _ in range(3):
            first.advance_day()
            second.advance_day()
            assert first.faults.flaky_offline == second.faults.flaky_offline
        assert first.faults.flaky_offline  # 20% of 60 clients: non-empty


class TestServerCrash:
    def test_crash_reassigns_clients_to_survivor(self):
        faults = FaultConfig(server_crash_day=1, server_downtime_days=2)
        network, _, _ = run_crawl(tiny_network_config(faults=faults), days=2)
        stats = network.faults.stats
        assert stats.server_crashes == 1
        assert stats.clients_reassigned > 0
        survivor = next(sid for sid in network.servers if sid != 0)
        for client in network.clients.values():
            if client.server_id is not None:
                assert client.server_id == survivor

    def test_crashed_server_recovers_on_schedule(self):
        faults = FaultConfig(server_crash_day=1, server_downtime_days=2)
        network, _, _ = run_crawl(tiny_network_config(faults=faults), days=5)
        stats = network.faults.stats
        assert stats.server_crashes == 1
        assert stats.server_recoveries == 1
        assert not network.down_servers

    def test_crash_with_no_survivor_orphans_clients(self):
        faults = FaultConfig(server_crash_day=1, server_downtime_days=0)
        network, _, trace = run_crawl(
            tiny_network_config(num_servers=1, faults=faults), days=3
        )
        assert network.faults.stats.clients_reassigned == 0
        assert all(c.server_id is None for c in network.clients.values())
        # Day 0 browses still happened: the trace is partial, not empty.
        assert trace.num_snapshots > 0


class TestHostileCrawl:
    def test_loss_plus_crash_still_yields_a_valid_trace(self):
        """The acceptance scenario: 5% loss and a mid-crawl server crash
        with retries on — the crawl completes and stays near-complete."""
        baseline = run_crawl(tiny_network_config())
        faults = FaultConfig(loss_rate=0.05, server_crash_day=2)
        network, crawler, trace = run_crawl(
            tiny_network_config(faults=faults),
            CrawlerConfig(
                days=4,
                browse_budget_start=500,
                browse_budget_end=400,
                retry=RetryPolicy(max_retries=3),
            ),
        )
        assert trace.num_snapshots > 0
        assert len(trace.days()) == 4
        report = crawler.degradation_report(
            trace, baseline_snapshots=baseline[2].num_snapshots
        )
        assert 0.8 < report.completeness <= 1.0
        assert 0.9 < report.delivery_rate < 1.0
        assert network.faults.stats.server_crashes == 1

    def test_peer_downtime_counts_unreachable_sends(self):
        faults = FaultConfig(peer_downtime=0.3)
        network, _, trace = run_crawl(tiny_network_config(faults=faults))
        assert network.faults.stats.peer_unreachable > 0
        assert trace.num_snapshots > 0

    @staticmethod
    def downtime_crawl(seed):
        _, _, trace = run_crawl(
            tiny_network_config(faults=FaultConfig(peer_downtime=0.3)),
            CrawlerConfig(days=8, browse_budget_start=500, browse_budget_end=500),
            seed=seed,
            days=8,
        )
        return trace

    @staticmethod
    def gapped_share(trace):
        """Share of clients seen on two or more days whose days have a gap."""
        spans = [trace.observation_days(c) for c in trace.clients]
        spans = [days for days in spans if len(days) >= 2]
        gapped = [days for days in spans if days[-1] - days[0] + 1 > len(days)]
        return len(gapped) / len(spans) if spans else 0.0

    def test_crawler_sees_downtime_gaps(self):
        """A peer down for a day leaves a gap in its observations."""
        trace = self.downtime_crawl(seed=14)
        assert trace.num_snapshots > 0
        assert self.gapped_share(trace) > 0.3

    def test_extrapolation_fills_downtime_gaps(self):
        """Extrapolating a crawled trace with downtime gaps fills the gaps
        with snapshots."""
        from repro.trace.extrapolation import ExtrapolationConfig, extrapolate

        trace = self.downtime_crawl(seed=15)
        assert self.gapped_share(trace) > 0.3
        extrapolated = extrapolate(
            trace, ExtrapolationConfig(min_connections=3, min_span_days=4)
        )
        assert extrapolated.num_snapshots > sum(
            len(trace.observation_days(c)) for c in extrapolated.clients
        )

    def test_malformed_replies_empty_the_browse(self):
        faults = FaultConfig(malformed_rate=1.0)
        network, crawler, trace = run_crawl(tiny_network_config(faults=faults))
        assert network.faults.stats.malformed_replies > 0
        # Every browse that got through was emptied: snapshots carry no files.
        assert all(not s.file_ids for s in trace.iter_snapshots())

    def test_retries_consume_browse_budget(self):
        faults = FaultConfig(loss_rate=0.3)
        _, crawler, _ = run_crawl(
            tiny_network_config(faults=faults),
            CrawlerConfig(
                days=2,
                browse_budget_start=40,
                browse_budget_end=40,
                retry=RetryPolicy(max_retries=3),
            ),
            days=2,
        )
        assert crawler.stats.browse_retries > 0
        # Budget bounds *attempts* (including retries), not clients.
        assert crawler.stats.browse_attempts <= 2 * 40
