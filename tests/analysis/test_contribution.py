"""Tests for contribution / file-size analyses."""

import pytest

from repro.analysis.contribution import (
    generosity_concentration,
    size_cdf_by_popularity,
)
from tests.conftest import build_static, make_file

KB = 1024
MB = 1024 * 1024


class TestSizeCdf:
    def test_popularity_thresholds(self):
        files = [
            make_file("small", size=500 * KB),
            make_file("large", size=700 * MB),
        ]
        static = build_static(
            {0: ["small", "large"], 1: ["large"], 2: ["large"]}, files=files
        )
        series = size_cdf_by_popularity(static, (1, 2))
        all_files, popular = series
        assert len(all_files) == 2
        # Only "large" has popularity >= 2.
        assert len(popular) == 1
        assert popular.xs[0] == pytest.approx(700 * 1024)

    def test_empty_threshold_class(self):
        static = build_static({0: ["a"]})
        series = size_cdf_by_popularity(static, (99,))
        assert len(series[0]) == 0

    def test_sizes_in_kb(self):
        static = build_static({0: ["a"]}, files=[make_file("a", size=2048)])
        series = size_cdf_by_popularity(static, (1,))
        assert series[0].xs[0] == pytest.approx(2.0)


class TestGenerosityConcentration:
    def test_uniform(self):
        static = build_static({i: [f"f{i}a", f"f{i}b"] for i in range(10)})
        # top 10% = 1 of 10 equal sharers -> 10% of files
        assert generosity_concentration(static, 0.10) == pytest.approx(0.1)

    def test_skewed(self):
        caches = {0: [f"x{i}" for i in range(90)]}
        caches.update({i: [f"y{i}"] for i in range(1, 11)})
        static = build_static(caches)
        assert generosity_concentration(static, 0.10) == pytest.approx(0.9)

    def test_no_sharers_raises(self):
        static = build_static({0: [], 1: []})
        with pytest.raises(ValueError):
            generosity_concentration(static)


class TestGeneratedWorkload:
    def test_paper_shape_holds(self, small_static_trace):
        """Free-riding dominant, sharing skewed (Figure 7's shape)."""
        free = len(small_static_trace.free_riders())
        assert free / small_static_trace.num_clients > 0.6
        concentration = generosity_concentration(small_static_trace, 0.15)
        assert concentration > 0.4

    def test_popular_files_skew_large(self, small_static_trace):
        """Figure 6: popular files are much bigger than average files."""
        series = size_cdf_by_popularity(small_static_trace, (1, 5))
        all_files, popular = series
        if len(popular) < 10:
            import pytest as _pytest

            _pytest.skip("not enough popular files at this scale")

        def median(s):
            return next(
                (x for x, p in zip(s.xs, s.ys) if p >= 0.5), s.xs[-1]
            )

        assert median(popular) > median(all_files)


class TestTemporalContribution:
    def test_mean_of_observed_caches(self):
        from repro.analysis.contribution import temporal_contribution_cdfs
        from tests.conftest import build_trace

        trace = build_trace(
            {
                1: {0: ["a", "b"], 1: []},
                2: {0: ["a", "b", "c", "d"], 1: []},
            },
            files=[make_file(f, size=MB) for f in ("a", "b", "c", "d")],
        )
        cdfs = temporal_contribution_cdfs(trace)
        # client 0's mean observed cache: (2 + 4) / 2 = 3 files
        assert cdfs["files_sharers"].xs == [3.0]
        # client 1 is a free-rider: included in full, excluded from sharers
        assert min(cdfs["files_full"].xs) == 0.0
        # mean space: (2MB + 4MB)/2 = 3MB in GB
        assert cdfs["space_sharers"].xs[0] == pytest.approx(3 / 1024)

    def test_instantaneous_below_union(self, small_temporal_trace):
        """The temporal (mean observed) view gives smaller per-client
        contributions than the union-over-days static view — the reason
        Figure 7 uses it."""
        from repro.analysis.contribution import temporal_contribution_cdfs

        temporal = temporal_contribution_cdfs(small_temporal_trace)
        static = small_temporal_trace.to_static()
        union_sizes = [len(cache) for cache in static.caches.values() if cache]
        mean_temporal = sum(temporal["files_sharers"].xs) / len(
            temporal["files_sharers"].xs
        )
        mean_static = sum(union_sizes) / len(union_sizes)
        assert mean_temporal < mean_static
