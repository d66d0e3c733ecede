"""Tests for the AS-level PeerCache simulation."""

import pytest

from repro.cache.peercache import (
    AsContentCache,
    AsIndexCache,
    PeerCacheConfig,
    simulate_peercache,
)
from tests.conftest import build_static, make_client, make_file

MB = 1024 * 1024


class TestAsIndexCache:
    def test_publish_and_lookup(self):
        cache = AsIndexCache(3320)
        cache.publish(1, "f")
        assert cache.lookup("f")
        assert not cache.lookup("missing")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_exclude_self(self):
        cache = AsIndexCache(3320)
        cache.publish(1, "f")
        assert not cache.lookup("f", exclude=1)
        cache.publish(2, "f")
        assert cache.lookup("f", exclude=1)

    def test_hit_rate(self):
        cache = AsIndexCache(1)
        assert cache.hit_rate == 0.0
        cache.publish(1, "f")
        cache.lookup("f")
        cache.lookup("g")
        assert cache.hit_rate == 0.5

    def test_index_entries(self):
        cache = AsIndexCache(1)
        cache.publish(1, "f")
        cache.publish(2, "f")
        cache.publish(1, "g")
        assert cache.index_entries() == 3


class TestAsContentCache:
    def test_miss_then_hit(self):
        cache = AsContentCache(1, capacity_bytes=10 * MB)
        assert not cache.request("f", 1 * MB)
        assert cache.request("f", 1 * MB)
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = AsContentCache(1, capacity_bytes=2 * MB)
        cache.request("a", MB)
        cache.request("b", MB)
        cache.request("a", MB)  # refresh a
        cache.request("c", MB)  # evicts b (LRU)
        assert cache.request("a", MB)  # hit
        assert not cache.request("b", MB)  # evicted
        assert cache.evictions >= 1

    def test_oversized_file_not_stored(self):
        cache = AsContentCache(1, capacity_bytes=MB)
        assert not cache.request("huge", 10 * MB)
        assert not cache.request("huge", 10 * MB)
        assert cache.used_bytes == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AsContentCache(1, capacity_bytes=0)


class TestConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            PeerCacheConfig(mode="hybrid")

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PeerCacheConfig(capacity_bytes=0)


def geo_static():
    """Two ASes; AS 1 is a tight community, AS 2 holds unrelated files."""
    clients = [
        make_client(0, asn=1),
        make_client(1, asn=1),
        make_client(2, asn=1),
        make_client(3, asn=2),
        make_client(4, asn=2),
    ]
    caches = {
        0: ["shared-a", "shared-b"],
        1: ["shared-a", "shared-b"],
        2: ["shared-a"],
        3: ["other-x"],
        4: ["other-y"],
    }
    files = [make_file(f, size=MB) for f in
             ("shared-a", "shared-b", "other-x", "other-y")]
    return build_static(caches, clients=clients, files=files)


class TestSimulation:
    def test_index_mode_finds_local_sources(self):
        result = simulate_peercache(geo_static(), PeerCacheConfig(mode="index", seed=1))
        # All actual requests are for shared-a / shared-b inside AS 1.
        assert result.requests == 3
        assert result.hit_rate == 1.0
        assert result.byte_locality == 1.0

    def test_no_local_sources_no_hits(self):
        clients = [make_client(0, asn=1), make_client(1, asn=2)]
        static = build_static(
            {0: ["f"], 1: ["f"]},
            clients=clients,
            files=[make_file("f", size=MB)],
        )
        result = simulate_peercache(static, PeerCacheConfig(mode="index", seed=1))
        assert result.requests == 1
        assert result.hit_rate == 0.0

    def test_requester_becomes_local_source(self):
        """After a cross-AS fetch the file is published locally, so a
        second local requester hits."""
        clients = [
            make_client(0, asn=1),
            make_client(1, asn=2),
            make_client(2, asn=2),
        ]
        static = build_static(
            {0: ["f"], 1: ["f"], 2: ["f"]},
            clients=clients,
            files=[make_file("f", size=MB)],
        )
        result = simulate_peercache(static, PeerCacheConfig(mode="index", seed=1))
        assert result.requests == 2
        assert result.intra_as_hits >= 1

    def test_content_mode_counts_bytes(self):
        result = simulate_peercache(
            geo_static(),
            PeerCacheConfig(mode="content", capacity_bytes=100 * MB, seed=1),
        )
        assert result.mode == "content"
        assert result.bytes_total > 0
        assert 0.0 <= result.byte_locality <= 1.0

    def test_per_as_breakdown(self):
        result = simulate_peercache(geo_static(), PeerCacheConfig(mode="index", seed=1))
        rows = result.top_as_rows(2)
        assert rows[0][0] == 1  # AS 1 is the busiest
        assert rows[0][2] == 1.0

    def test_geo_clustering_raises_locality(self, small_static_trace):
        """On a generated workload, index-mode locality is well above the
        no-structure floor (the experiment asserts the ablation gap)."""
        result = simulate_peercache(
            small_static_trace, PeerCacheConfig(mode="index", seed=2)
        )
        assert result.hit_rate > 0.1


class TestExperiment:
    def test_run_peercache_small(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.peercache_experiments import run_peercache

        result = run_peercache(RunContext(scale=Scale.SMALL))
        assert result.metric("geo_clustering_gain") > 0.0
        assert (
            result.metric("index_hit_rate")
            > result.metric("index_hit_rate_no_geo")
        )
        assert 0.0 <= result.metric("content_hit_rate") <= 1.0
