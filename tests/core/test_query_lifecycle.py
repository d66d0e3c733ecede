"""Tests for per-query lifecycle records and their histograms.

A profiled search emits one :class:`QueryRecord` per request — outcome,
hop counts, phase latencies — folded into the ``search/*`` histograms
of the metrics report and, with a tracer attached, one structured
instant event per query.
"""

import pytest

from repro.core.search import QueryRecord, SearchConfig, simulate_search
from repro.obs import Observer, TraceRecorder
from tests.conftest import build_static

SEED = 7


def clique(files: int = 12, peers: int = 8):
    return build_static(
        {i: [f"f{j}" for j in range(files)] for i in range(peers)}
    )


class TestQueryRecord:
    def test_probes_sums_both_hops(self):
        record = QueryRecord(
            index=1, peer=0, file_id="f", outcome="two_hop",
            hops=4, two_hop_contacts=7,
        )
        assert record.probes == 11

    def test_as_args_includes_optionals_only_when_set(self):
        record = QueryRecord(
            index=1, peer=0, file_id="f", outcome="fallback", hops=3
        )
        args = record.as_args()
        assert args["outcome"] == "fallback"
        assert "hit_position" not in args
        assert "probes_lost" not in args
        record.hit_position = 2
        record.probes_lost = 1
        args = record.as_args()
        assert args["hit_position"] == 2
        assert args["probes_lost"] == 1


class TestLifecycleHistograms:
    def test_histograms_cover_every_request(self):
        obs = Observer()
        result = simulate_search(
            clique(), SearchConfig(list_size=3, seed=SEED), obs=obs
        )
        metrics = obs.report()
        requests = result.rates.requests
        assert metrics.histogram("search/hops_per_request").count == requests
        assert (
            metrics.histogram("search/probes_per_request").count == requests
        )
        assert (
            metrics.histogram("search/latency/one_hop_s").count == requests
        )

    def test_hit_position_counts_one_hop_hits_only(self):
        obs = Observer()
        result = simulate_search(
            clique(), SearchConfig(list_size=3, seed=SEED), obs=obs
        )
        hist = obs.report().histogram("search/hit_position")
        assert hist.count == result.rates.one_hop_hits
        # 1-based rank within a list of at most list_size neighbours.
        assert hist.min >= 1
        assert hist.max <= 3

    def test_phase_latencies_partition_by_outcome(self):
        obs = Observer()
        result = simulate_search(
            clique(),
            SearchConfig(list_size=3, two_hop=True, seed=SEED),
            obs=obs,
        )
        metrics = obs.report()
        rates = result.rates
        misses = rates.requests - rates.one_hop_hits
        fallbacks = rates.requests - rates.hits
        # Two-hop runs on every one-hop miss; fallback on every full miss.
        assert (
            metrics.histogram("search/latency/two_hop_s").count == misses
        )
        assert (
            metrics.histogram("search/latency/fallback_s").count == fallbacks
        )

    @pytest.mark.parametrize("strategy", ["lru", "random"])
    def test_every_probe_is_one_load_message(
        self, strategy, small_static_trace
    ):
        """Each one-hop neighbour and each second-hop contact is sent one
        query, so the probe histogram sums to the load tracker's total."""
        obs = Observer()
        result = simulate_search(
            small_static_trace,
            SearchConfig(list_size=5, strategy=strategy, two_hop=True, seed=SEED),
            obs=obs,
        )
        probes = obs.histograms["search/probes_per_request"].total
        hops = obs.histograms["search/hops_per_request"].total
        assert probes > hops > 0  # the second hop contacted someone
        assert probes == result.load.total_messages

    @pytest.mark.parametrize("strategy", ["lru", "random"])
    def test_probes_counted_without_load_accounting(
        self, strategy, small_static_trace
    ):
        """A profiled run without load accounting still records every
        second-hop contact: its probe histogram sums to the load the
        same run counts with accounting on."""
        config = dict(list_size=5, strategy=strategy, two_hop=True, seed=SEED)
        counted = simulate_search(small_static_trace, SearchConfig(**config))
        obs = Observer()
        simulate_search(
            small_static_trace, SearchConfig(track_load=False, **config), obs=obs
        )
        probes = obs.histograms["search/probes_per_request"].total
        assert probes == counted.load.total_messages

    def test_one_hop_only_search_has_no_two_hop_latency(self):
        obs = Observer()
        simulate_search(
            clique(), SearchConfig(list_size=3, seed=SEED), obs=obs
        )
        assert "search/latency/two_hop_s" not in obs.report().histograms

    def test_disabled_observer_records_no_histograms(self):
        obs = Observer(enabled=False)
        simulate_search(
            clique(), SearchConfig(list_size=3, seed=SEED), obs=obs
        )
        assert obs.histograms == {}


class TestQueryTraceEvents:
    def test_one_instant_event_per_request(self):
        tracer = TraceRecorder()
        obs = Observer(tracer=tracer)
        result = simulate_search(
            clique(),
            SearchConfig(list_size=3, two_hop=True, seed=SEED),
            obs=obs,
        )
        queries = [
            e
            for e in tracer.to_chrome()["traceEvents"]
            if e.get("cat") == "query"
        ]
        assert len(queries) == result.rates.requests
        outcomes = {e["args"]["outcome"] for e in queries}
        assert outcomes <= {"one_hop", "two_hop", "fallback"}
        assert all(e["args"]["hops"] >= 0 for e in queries)

    def test_no_tracer_means_no_query_events_but_same_histograms(self):
        plain_obs = Observer()
        simulate_search(
            clique(), SearchConfig(list_size=3, seed=SEED), obs=plain_obs
        )
        traced_obs = Observer(tracer=TraceRecorder())
        simulate_search(
            clique(), SearchConfig(list_size=3, seed=SEED), obs=traced_obs
        )
        plain, traced = plain_obs.report(), traced_obs.report()
        assert set(plain.histograms) == set(traced.histograms)
        for name in plain.histograms:
            # Wall-clock sums differ run to run; the deterministic
            # structure (how many samples landed where) must not.
            assert plain.histogram(name).count == traced.histogram(name).count
        # The count-valued histograms are fully deterministic.
        assert (
            plain.histograms["search/hops_per_request"]
            == traced.histograms["search/hops_per_request"]
        )
