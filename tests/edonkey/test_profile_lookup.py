"""Regression test: client-metadata lookup must be O(1) per new client.

The crawler used to resolve each newly seen client's profile with a
linear scan over ``generator.profiles`` — O(N) per client, O(N²) per
crawl.  The fix builds a ``client_id -> profile`` dict once; this test
pins that by counting how often the profile list is iterated during a
crawl that discovers well over 100 clients.
"""

from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.network import NetworkConfig, build_network
from repro.runtime.scale import crawl_workload


class CountingList(list):
    """A list that counts how many times it is iterated."""

    def __init__(self, items):
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def build_counting_network(num_clients: int, days: int, seed: int = 0):
    network = build_network(
        NetworkConfig(workload=crawl_workload(num_clients, days)), seed=seed
    )
    network.generator.profiles = CountingList(network.generator.profiles)
    return network


class TestProfileLookupComplexity:
    def test_profile_list_iterations_independent_of_clients_seen(self):
        days = 2
        network = build_counting_network(num_clients=160, days=days)
        crawler = Crawler(network, CrawlerConfig(days=days), seed=0)
        trace = crawler.crawl()

        # The crawl saw far more than 100 clients...
        assert len(crawler.reachable_users) >= 100
        assert len(trace.clients) >= 60
        # ...yet the profile list was only swept a constant number of
        # times: once by the crawler's lookup-table build and once per
        # day by the network's churn loop — never once per client.
        profiles = network.generator.profiles
        assert profiles.iterations <= days + 2, (
            f"profile list iterated {profiles.iterations} times for "
            f"{len(trace.clients)} clients — per-client scans are back"
        )

    def test_lookup_table_still_resolves_correct_metadata(self):
        network = build_counting_network(num_clients=120, days=1)
        crawler = Crawler(network, CrawlerConfig(days=1), seed=0)
        trace = crawler.crawl()
        by_id = {p.meta.client_id: p for p in list(network.generator.profiles)}
        assert trace.clients  # the crawl collected someone
        for client_id, meta in trace.clients.items():
            profile = by_id[client_id]
            assert meta.uid == profile.meta.uid
            assert meta.ip == profile.meta.ip
            assert meta.country == profile.meta.country
            assert meta.asn == profile.meta.asn
            assert meta.nickname == profile.meta.nickname
