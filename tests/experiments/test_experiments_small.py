"""Integration tests: every experiment runs at SMALL scale and reproduces
the paper's qualitative shape (the quantitative reproduction runs at
DEFAULT scale in ``benchmarks/``).

SMALL scale has only ~80 sharers, so assertions here are the *robust*
orderings: who beats whom, what rises, what falls.  Thresholds are loose by
design — these tests guard against sign errors, not calibration drift.
"""

import pytest

from repro import experiments as E
from repro.experiments import Scale
from repro.runtime import RunContext
from repro.runtime.cache import SHARED_TRACE_CACHE

SCALE = Scale.SMALL
CTX = RunContext(scale=SCALE)


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    """Generate the shared traces once for the whole module."""
    SHARED_TRACE_CACHE.temporal(SCALE)
    SHARED_TRACE_CACHE.filtered(SCALE)
    SHARED_TRACE_CACHE.extrapolated(SCALE)
    SHARED_TRACE_CACHE.static(SCALE)


class TestTable1:
    def test_pipeline_shrinks_monotonically(self):
        result = E.run_table1(CTX)
        assert (
            result.metric("full_clients")
            >= result.metric("filtered_clients")
            >= result.metric("extrapolated_clients")
        )

    def test_free_riding_dominates(self):
        result = E.run_table1(CTX)
        assert 0.6 < result.metric("full_free_rider_fraction") < 0.9


class TestFigure1:
    def test_crawler_decline(self):
        result = E.run_figure01(CTX)
        assert result.metric("decline_ratio") < 0.9


class TestFigure2:
    def test_discovery_continues(self):
        result = E.run_figure02(CTX)
        assert result.metric("new_files_last_day") > 0
        assert result.metric("total_files") > 0


class TestFigure3:
    def test_extrapolated_days_populated(self):
        result = E.run_figure03(CTX)
        assert result.metric("min_daily_files") > 0
        assert result.metric("min_daily_non_empty_caches") > 0


class TestFigure4:
    def test_country_mix(self):
        result = E.run_figure04(CTX)
        assert result.metric("share_FR") == pytest.approx(0.29, abs=0.08)
        assert result.metric("share_DE") == pytest.approx(0.28, abs=0.08)
        assert result.metric("share_FR") > result.metric("share_US")


class TestFigure5:
    def test_zipf_like(self):
        result = E.run_figure05(CTX)
        assert result.metric("mean_zipf_slope") > 0.2
        assert result.metric("days_plotted") >= 3


class TestFigure6:
    def test_popular_files_are_large(self):
        result = E.run_figure06(CTX)
        assert result.metric("p1_under_1mb") > 0.2
        assert result.metric("p5_over_600mb") > result.metric("p1_over_600mb")


class TestFigure7:
    def test_contribution_shape(self):
        result = E.run_figure07(CTX)
        assert result.metric("free_rider_fraction") > 0.6
        assert result.metric("sharers_under_100_files") > 0.5
        assert result.metric("top15pct_share_of_files") > 0.4


class TestFigure8:
    def test_spread_small_and_shaped(self):
        result = E.run_figure08(CTX)
        assert result.metric("max_spread_fraction_any_file") < 0.3
        assert result.metric("max_spread_pct") > 0


class TestFigure910:
    def test_runs(self):
        result = E.run_figure09_10(CTX)
        assert result.metric("early_top5_mean_final_rank") >= 1
        assert len(result.series) == 10


class TestTable2:
    def test_as_concentration(self):
        result = E.run_table2(CTX)
        assert result.metric("top5_concentration") > 0.4
        assert result.metric("as3320_global") == pytest.approx(0.21, abs=0.08)


class TestFigures1112:
    def test_rare_files_more_home_concentrated(self):
        for runner in (E.run_figure11, E.run_figure12):
            result = runner(CTX)
            rare = result.metrics.get("median_home_pct_p0.1")
            popular = result.metrics.get("median_home_pct_p1.2") or result.metrics.get(
                "median_home_pct_p0.6"
            )
            if rare is None or popular is None:
                pytest.skip("not enough files per popularity class")
            assert rare >= popular


class TestFigure13:
    def test_correlation_rises_with_overlap(self):
        result = E.run_figure13(CTX)
        assert result.metric("all_p_at_5") > result.metric("all_p_at_1")
        assert result.metric("all_p_at_1") > 10.0


class TestFigure14:
    def test_randomization_destroys_rare_clustering(self):
        result = E.run_figure14(CTX)
        # For low-popularity files the real trace clusters far more than
        # the generosity/popularity-preserving randomization.
        assert result.metric("pop3_trace_p1") > result.metric("pop3_random_p1")
        assert result.metric("pop5_trace_p1") > result.metric("pop5_random_p1")
        # Over all files the two are close (popular files mask interests).
        all_gap = abs(
            result.metric("all_trace_p1") - result.metric("all_random_p1")
        )
        assert all_gap < 20.0


class TestFigure1517:
    def test_high_overlap_persists_longer(self):
        result = E.run_figure15_17(CTX)
        high = result.metrics.get("high_overlap_mean_retention")
        low = result.metrics.get("low_overlap_mean_retention")
        if high is None or low is None:
            pytest.skip("not enough pairs at this scale")
        assert high > 0.3


class TestFigure18:
    def test_semantic_beats_random(self):
        result = E.run_figure18(CTX, list_sizes=(5, 20))
        lru = result.series_named("LRU")
        rnd = result.series_named("Random")
        assert lru.y_at(5) > rnd.y_at(5) * 1.5
        assert lru.y_at(20) > lru.y_at(5)

    def test_history_competitive_with_lru(self):
        result = E.run_figure18(CTX, list_sizes=(5, 20))
        history = result.series_named("History")
        lru = result.series_named("LRU")
        assert history.y_at(20) > 0.8 * lru.y_at(20)


class TestFigure19:
    def test_removing_uploaders_lowers_hits_but_not_to_zero(self):
        result = E.run_figure19(CTX, list_sizes=(5, 20))
        assert result.metric("minus15@20") < result.metric("all@20")
        assert result.metric("minus15@20") > 0.05


class TestFigure20:
    def test_removing_popular_files_raises_short_list_hits(self):
        result = E.run_figure20(
            CTX, list_sizes=(5, 20), fractions=(0.05, 0.15)
        )
        base = result.series_named("all files")
        ablated = result.series_named("without 15% popular")
        assert ablated.y_at(5) > base.y_at(5)


class TestTable3:
    def test_opposite_effects(self):
        result = E.run_table3(CTX, list_sizes=(5, 20))
        base = result.metric("base@5")
        assert result.metric("no_top_15_uploaders@5") < base
        assert result.metric("no_15_popular_files@5") > base


class TestFigure21:
    def test_randomization_lowers_hit_rate(self):
        result = E.run_figure21(CTX, num_checkpoints=3)
        assert (
            result.metric("hit_rate_fully_randomized")
            < result.metric("hit_rate_original")
        )
        assert result.metric("semantic_share") > 0.05

    def test_monotone_trend(self):
        result = E.run_figure21(CTX, num_checkpoints=3)
        series = result.series[0]
        assert series.ys[-1] < series.ys[0]


class TestFigure22:
    def test_removing_uploaders_flattens_load(self):
        result = E.run_figure22(CTX, fractions=(0.0, 0.10))
        max_drop = result.metric("max_load_all") / max(
            result.metric("max_load_minus10"), 1.0
        )
        mean_drop = result.metric("mean_load_all") / max(
            result.metric("mean_load_minus10"), 1e-9
        )
        assert max_drop > mean_drop

    def test_load_series_sorted(self):
        result = E.run_figure22(CTX, fractions=(0.0,))
        ys = result.series[0].ys
        assert ys == sorted(ys, reverse=True)


class TestFigure23:
    def test_two_hop_beats_one_hop(self):
        result = E.run_figure23(
            CTX, list_sizes=(5, 20), uploader_fractions=(0.05,)
        )
        assert result.metric("two_hop@20") > result.metric("one_hop@20")
        assert result.metric("two_hop@5") > 0.1


class TestBaselines:
    def test_flooding_estimate(self):
        result = E.run_flooding_estimate(CTX)
        assert result.metric("max_spread") < 0.3
        assert result.metric("analytic_contacts") > 1
        assert result.metric("flooding_hit_rate") > 0.8

    def test_render_all(self):
        """Every experiment renders without crashing."""
        for runner in (
            E.run_table1,
            E.run_figure04,
            E.run_figure18,
        ):
            text = runner(CTX).render()
            assert "===" in text
