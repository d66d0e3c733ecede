"""Tests for semantic-clustering analyses."""

import pytest

from repro.analysis.semantic import (
    clustering_correlation,
    mean_overlap_decay,
    overlap_evolution,
    pair_overlaps,
    popularity_band_filter,
)
from repro.util.cdf import Series
from tests.conftest import build_trace


class TestPairOverlaps:
    def test_exact_counts(self):
        caches = {
            0: frozenset({"a", "b", "c"}),
            1: frozenset({"a", "b"}),
            2: frozenset({"c"}),
            3: frozenset({"z"}),
        }
        overlaps = pair_overlaps(caches)
        assert overlaps[(0, 1)] == 2
        assert overlaps[(0, 2)] == 1
        assert (1, 2) not in overlaps
        assert (0, 3) not in overlaps

    def test_file_filter(self):
        caches = {0: frozenset({"a", "b"}), 1: frozenset({"a", "b"})}
        overlaps = pair_overlaps(caches, file_filter=lambda f: f == "a")
        assert overlaps == {(0, 1): 1}


class TestClusteringCorrelation:
    def test_perfect_clique(self):
        """All peers share everything: P(n+1 | n) = 100% until the cache
        size bound."""
        caches = {i: frozenset({"a", "b", "c", "d"}) for i in range(6)}
        series = clustering_correlation(caches, min_pairs=1)
        assert series.ys[0] == pytest.approx(100.0)
        assert series.ys[1] == pytest.approx(100.0)
        assert series.ys[2] == pytest.approx(100.0)
        assert series.y_at(4) == pytest.approx(0.0)

    def test_exact_two_level(self):
        # 3 pairs with overlap 1, 1 pair with overlap 2:
        # P(>=2 | >=1) = 1/4.
        caches = {
            0: frozenset({"a", "b"}),
            1: frozenset({"a", "b"}),
            2: frozenset({"c", "a"}),
            3: frozenset({"c"}),
        }
        # pairs: (0,1)=2, (0,2)=1, (1,2)=1, (2,3)=1
        series = clustering_correlation(caches, min_pairs=1)
        assert series.y_at(1) == pytest.approx(25.0)

    def test_empty(self):
        series = clustering_correlation({0: frozenset()})
        assert len(series) == 0

    def test_min_pairs_truncates(self):
        caches = {
            0: frozenset({"a", "b"}),
            1: frozenset({"a", "b"}),
        }
        series = clustering_correlation(caches, min_pairs=5)
        assert len(series) == 0


class TestPopularityBandFilter:
    def test_band(self):
        caches = {
            0: frozenset({"rare", "mid", "hot"}),
            1: frozenset({"mid", "hot"}),
            2: frozenset({"hot"}),
        }
        accept = popularity_band_filter(caches, 2, 2)
        assert accept("mid")
        assert not accept("rare")
        assert not accept("hot")

    def test_kind_restriction(self):
        caches = {0: frozenset({"x", "y"}), 1: frozenset({"x", "y"})}
        accept = popularity_band_filter(
            caches, 1, 10, kind_of={"x": "audio", "y": "video"}, kind="audio"
        )
        assert accept("x")
        assert not accept("y")

    def test_kind_without_mapping_raises(self):
        caches = {0: frozenset({"x"})}
        accept = popularity_band_filter(caches, 1, 10, kind=None)
        assert accept("x")
        bad = popularity_band_filter(caches, 1, 10, kind="audio")
        with pytest.raises(ValueError):
            bad("x")


class TestOverlapEvolution:
    def build(self):
        # Pair (0,1) overlaps 2 on day 1 and keeps it; pair (2,3) overlaps
        # 1 and loses it.
        return build_trace(
            {
                1: {0: ["a", "b"], 1: ["a", "b"], 2: ["c"], 3: ["c"]},
                2: {0: ["a", "b"], 1: ["a", "b"], 2: ["c"], 3: ["x"]},
                3: {0: ["a", "b", "z"], 1: ["a", "b"], 2: ["y"], 3: ["x"]},
            }
        )

    def test_groups_and_values(self):
        series = overlap_evolution(self.build(), first_day=1)
        by_name = {s.name: s for s in series}
        two = by_name["2 Common Files, 1 Pairs"]
        assert two.ys == [2.0, 2.0, 2.0]
        one = by_name["1 Common Files, 1 Pairs"]
        assert one.ys == [1.0, 0.0, 0.0]

    def test_level_selection(self):
        series = overlap_evolution(
            self.build(), first_day=1, overlap_levels=[2]
        )
        assert len(series) == 1
        assert series[0].name.startswith("2 Common Files")

    def test_unknown_first_day(self):
        with pytest.raises(ValueError):
            overlap_evolution(self.build(), first_day=99)

    def test_missing_observation_skips_pair(self):
        trace = build_trace(
            {
                1: {0: ["a"], 1: ["a"]},
                2: {0: ["a"]},  # client 1 unobserved on day 2
                3: {0: ["a"], 1: ["a"]},
            }
        )
        series = overlap_evolution(trace, first_day=1)
        assert series[0].xs == [1.0, 3.0]

    def test_subsampling_keeps_full_count_in_name(self):
        caches = {i: ["a"] for i in range(30)}
        trace = build_trace({1: caches, 2: caches})
        series = overlap_evolution(trace, first_day=1, max_pairs_per_level=10)
        assert "435 Pairs" in series[0].name  # C(30,2)


class TestDecayMetric:
    def test_values(self):
        assert mean_overlap_decay(Series("s", [1, 2], [4.0, 2.0])) == 0.5
        assert mean_overlap_decay(Series("s", [1, 2], [0.0, 1.0])) == 0.0

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            mean_overlap_decay(Series("s", [1], [1.0]))
