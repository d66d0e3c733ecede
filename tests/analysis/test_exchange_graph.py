"""Tests for the exchange-graph analysis."""

import pytest

from repro.analysis.exchange_graph import (
    build_exchange_graph,
    degree_skew,
    largest_dense_community,
    reciprocity,
    summarize_exchanges,
    undirected_clustering,
)


class TestBuild:
    def test_edges_and_weights(self):
        graph = build_exchange_graph({(1, 2): 3, (2, 1): 1, (1, 3): 1})
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3
        assert graph[1][2]["weight"] == 3

    def test_empty(self):
        graph = build_exchange_graph({})
        assert graph.number_of_nodes() == 0


class TestReciprocity:
    def test_fully_reciprocal(self):
        graph = build_exchange_graph({(1, 2): 1, (2, 1): 1})
        assert reciprocity(graph) == 1.0

    def test_one_way(self):
        graph = build_exchange_graph({(1, 2): 1, (1, 3): 1})
        assert reciprocity(graph) == 0.0

    def test_mixed(self):
        graph = build_exchange_graph({(1, 2): 1, (2, 1): 1, (1, 3): 1, (1, 4): 1})
        assert reciprocity(graph) == 0.5

    def test_empty(self):
        assert reciprocity(build_exchange_graph({})) == 0.0


class TestDegreeSkew:
    def test_uniform(self):
        graph = build_exchange_graph({(1, 2): 1, (2, 3): 1, (3, 1): 1})
        assert degree_skew(graph) == pytest.approx(1.0)

    def test_hub(self):
        edges = {(0, i): 1 for i in range(1, 10)}
        edges[(1, 2)] = 1
        graph = build_exchange_graph(edges)
        assert degree_skew(graph) > 1.5

    def test_empty(self):
        assert degree_skew(build_exchange_graph({})) == 0.0


class TestClusteringAndCores:
    def test_triangle_clusters(self):
        graph = build_exchange_graph({(1, 2): 1, (2, 3): 1, (3, 1): 1})
        assert undirected_clustering(graph) == pytest.approx(1.0)

    def test_star_does_not_cluster(self):
        graph = build_exchange_graph({(0, i): 1 for i in range(1, 6)})
        assert undirected_clustering(graph) == 0.0

    def test_dense_community_found(self):
        # A 5-clique plus a dangling chain.
        edges = {}
        clique = [10, 11, 12, 13, 14]
        for i in clique:
            for j in clique:
                if i < j:
                    edges[(i, j)] = 1
        edges[(14, 20)] = 1
        edges[(20, 21)] = 1
        graph = build_exchange_graph(edges)
        assert largest_dense_community(graph) == 5

    def test_empty_core(self):
        assert largest_dense_community(build_exchange_graph({})) == 0


class TestSummary:
    def test_rows_render(self):
        summary = summarize_exchanges({(1, 2): 1, (2, 1): 2})
        rows = dict(summary.rows())
        assert rows["nodes (peers that exchanged)"] == 2
        assert summary.reciprocity == 1.0
        assert summary.components == 1

    def test_on_simulation_output(self, small_static_trace):
        from repro.core.search import SearchConfig, simulate_search

        result = simulate_search(
            small_static_trace,
            SearchConfig(
                list_size=10, track_load=False, track_exchanges=True, seed=1
            ),
        )
        assert result.exchanges is not None
        total_uploads = sum(result.exchanges.values())
        assert total_uploads == result.rates.requests
        summary = summarize_exchanges(result.exchanges)
        assert summary.nodes > 0
        assert 0.0 <= summary.reciprocity <= 1.0

    def test_exchanges_disabled_by_default(self, small_static_trace):
        from repro.core.search import SearchConfig, simulate_search

        result = simulate_search(
            small_static_trace, SearchConfig(list_size=5, track_load=False, seed=1)
        )
        assert result.exchanges is None


class TestExperiment:
    def test_run_exchange_graph(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.extension_experiments import run_exchange_graph

        result = run_exchange_graph(RunContext(scale=Scale.SMALL))
        assert result.metric("nodes") > 10
        assert 0.0 < result.metric("reciprocity") < 1.0
        assert result.metric("largest_core") >= 3
