"""Tests for geographic analyses."""

import pytest

from repro.analysis.geographic import (
    country_histogram,
    home_locality_cdf,
    top_as_concentration,
    top_as_table,
)
from tests.conftest import build_trace, make_client


def geo_trace():
    clients = [
        make_client(0, country="FR", asn=3215),
        make_client(1, country="FR", asn=3215),
        make_client(2, country="FR", asn=12322),
        make_client(3, country="DE", asn=3320),
        make_client(4, country="DE", asn=3320),
        make_client(5, country="ES", asn=3352),
    ]
    # "local" lives entirely in FR; "global" is spread across countries.
    return build_trace(
        {
            1: {
                0: ["local", "global"],
                1: ["local"],
                2: ["local", "global"],
                3: ["global"],
                4: ["global"],
                5: ["global"],
            }
        },
        clients=clients,
    )


class TestCountryHistogram:
    def test_counts_and_order(self):
        rows = country_histogram(geo_trace())
        assert rows[0][0] == "FR"
        assert rows[0][1] == 3
        assert rows[0][2] == pytest.approx(0.5)

    def test_empty_trace_raises(self):
        from repro.trace.model import Trace

        with pytest.raises(ValueError):
            country_histogram(Trace())


class TestTopAsTable:
    def test_rows(self):
        rows = top_as_table(geo_trace(), k=2)
        assert rows[0].asn in (3215, 3320)
        by_asn = {r.asn: r for r in rows}
        assert by_asn[3215].national_share == pytest.approx(2 / 3)
        assert by_asn[3215].global_share == pytest.approx(2 / 6)
        assert by_asn[3215].country == "FR"

    def test_concentration(self):
        assert top_as_concentration(geo_trace(), k=10) == pytest.approx(1.0)


class TestHomeLocalityCdf:
    def test_local_file_fully_home(self):
        series = home_locality_cdf(
            geo_trace(), level="country", popularity_thresholds=(1,)
        )
        cdf = series[0]
        # "local": 3/3 FR = 100% home; "global": 2 FR of 5 sources = 40%.
        assert cdf.xs[0] == pytest.approx(40.0)
        assert cdf.xs[-1] == pytest.approx(100.0)

    def test_threshold_excludes_rare(self):
        series = home_locality_cdf(
            geo_trace(), level="country", popularity_thresholds=(100,)
        )
        assert len(series[0]) == 0

    def test_as_level(self):
        series = home_locality_cdf(
            geo_trace(), level="as", popularity_thresholds=(1,)
        )
        assert len(series[0]) > 0

    def test_bad_level(self):
        with pytest.raises(ValueError):
            home_locality_cdf(geo_trace(), level="continent")


class TestGeneratedTraceLocality:
    def test_unpopular_files_more_home_concentrated(self, small_temporal_trace):
        """The planted geographic clustering: rare files are more home-
        concentrated than popular files (Figure 11's ordering)."""
        # Average-popularity classes rescaled for reproduction scale, as
        # in run_figure11 (the ratio sources/days-seen tops out near 1.5).
        series = home_locality_cdf(
            small_temporal_trace,
            level="country",
            popularity_thresholds=(0.1, 1.2),
        )
        rare, popular = series
        if len(rare) == 0 or len(popular) == 0:
            pytest.skip("not enough files per class at this scale")

        def median_x(s):
            return next((x for x, p in zip(s.xs, s.ys) if p >= 0.5), s.xs[-1])

        assert median_x(rare) >= median_x(popular)
