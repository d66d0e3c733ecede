"""Tests for Zipf sampling, slope fitting and the swap schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RngStream
from repro.util.zipf import (
    ZipfSampler,
    expected_max_rank_share,
    fit_zipf_slope,
    harmonic_number,
    swap_iterations,
    zipf_weights,
)


class TestZipfWeights:
    def test_decreasing(self):
        w = zipf_weights(100, 1.0)
        assert (np.diff(w) <= 0).all()

    def test_flat_head(self):
        w = zipf_weights(100, 1.0, flat_head=10)
        assert len(set(np.round(w[:10], 12))) == 1
        assert w[10] < w[9]

    def test_alpha_zero_uniform(self):
        w = zipf_weights(10, 0.0)
        assert set(w) == {1.0}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)

    def test_flat_head_larger_than_n(self):
        w = zipf_weights(5, 1.0, flat_head=50)
        assert set(np.round(w, 12)) == {round(5.0**-1.0, 12)}


class TestZipfSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(50, 1.0)
        rng = RngStream(0)
        for _ in range(500):
            assert 0 <= sampler.sample(rng.py) < 50

    def test_head_is_most_frequent(self):
        sampler = ZipfSampler(100, 1.2)
        rng = RngStream(1)
        draws = [sampler.sample(rng.py) for _ in range(3000)]
        assert draws.count(0) > draws.count(50)

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(20, 0.8)
        total = sum(sampler.probability(i) for i in range(20))
        assert total == pytest.approx(1.0)

    def test_empirical_frequency_tracks_probability(self):
        sampler = ZipfSampler(10, 1.0)
        rng = RngStream(3)
        draws = [sampler.sample(rng.py) for _ in range(20000)]
        freq0 = draws.count(0) / len(draws)
        assert freq0 == pytest.approx(sampler.probability(0), rel=0.15)


class TestFitZipfSlope:
    def test_recovers_exact_power_law(self):
        ranks = np.arange(1, 200)
        values = 1000.0 * ranks**-0.9
        slope, r2 = fit_zipf_slope(ranks, values)
        assert slope == pytest.approx(0.9, abs=0.01)
        assert r2 > 0.999

    def test_skip_head(self):
        ranks = np.arange(1, 200)
        values = 1000.0 * ranks**-0.7
        values[:5] = values[5]  # flat head
        slope, _ = fit_zipf_slope(ranks, values, skip_head=5)
        assert slope == pytest.approx(0.7, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_zipf_slope([1, 2], [1, 2])

    def test_zeros_dropped(self):
        ranks = [1, 2, 3, 4, 5]
        values = [10, 5, 0, 2, 1]
        slope, _ = fit_zipf_slope(ranks, values)
        assert slope > 0


class TestHarmonics:
    def test_harmonic_number(self):
        assert harmonic_number(3) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_expected_max_rank_share(self):
        assert expected_max_rank_share(1, 1.0) == pytest.approx(1.0)
        assert expected_max_rank_share(100, 1.0) < 0.25


class TestSwapIterations:
    def test_matches_formula(self):
        n = 1000
        assert swap_iterations(n) == int(0.5 * n * math.log(n))

    def test_minimum_one(self):
        assert swap_iterations(1) == 1
        assert swap_iterations(2) >= 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            swap_iterations(0)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=50)
    def test_superlinear_growth(self, n):
        assert swap_iterations(2 * n) > swap_iterations(n)
