"""Tests for the interest-category model."""

from collections import Counter

import numpy as np
import pytest

from repro.util.rng import RngStream
from repro.workload.interests import (
    Category,
    InterestModel,
    InterestUniverse,
    poisson_draw,
)


def build_universe(num_categories=4, files_per_category=10, **kwargs):
    categories = [
        Category(index=i, home_country="FR" if i % 2 == 0 else None, weight=1.0)
        for i in range(num_categories)
    ]
    universe = InterestUniverse(categories, **kwargs)
    n = num_categories * files_per_category
    for file_index in range(n):
        universe.add_file(file_index, file_index % num_categories)
    weights = np.arange(1, n + 1, dtype=float)[::-1]  # file 0 most popular
    universe.finalize(weights)
    return universe


class TestInterestUniverse:
    def test_requires_categories(self):
        with pytest.raises(ValueError):
            InterestUniverse([])

    def test_bad_catalog_fraction(self):
        with pytest.raises(ValueError):
            InterestUniverse([Category(0, None, 1.0)], catalog_fraction=0.0)

    def test_sample_respects_membership(self):
        universe = build_universe()
        rng = RngStream(0)
        for _ in range(200):
            idx = universe.sample_file(2, rng)
            assert idx % 4 == 2

    def test_sample_empty_category(self):
        categories = [Category(0, None, 1.0), Category(1, None, 1.0)]
        universe = InterestUniverse(categories)
        universe.add_file(0, 0)
        universe.finalize(np.array([1.0]))
        assert universe.sample_file(1, RngStream(0)) is None

    def test_global_weight_mode_prefers_popular(self):
        universe = build_universe()  # within_alpha=None -> global weights
        rng = RngStream(1)
        draws = Counter(universe.sample_file(0, rng) for _ in range(2000))
        # file 0 (most popular) drawn more than the least popular member 36.
        assert draws[0] > draws.get(36, 0)

    def test_local_zipf_mode(self):
        universe = build_universe(within_alpha=1.5)
        rng = RngStream(2)
        draws = Counter(universe.sample_file(0, rng) for _ in range(2000))
        assert draws[0] > draws.get(36, 0) * 2

    def test_catalog_cut_excludes_tail(self):
        universe = build_universe(catalog_fraction=0.3)
        rng = RngStream(3)
        drawn = {universe.sample_file(0, rng) for _ in range(3000)}
        # Only the top 3 of 10 members are drawable.
        assert drawn <= {0, 4, 8}

    def test_homed_in(self):
        universe = build_universe()
        homed = universe.homed_in("FR")
        assert {c.index for c in homed} == {0, 2}
        assert {c.index for c in universe.international()} == {1, 3}


class TestInterestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            InterestModel(num_categories=0)
        with pytest.raises(ValueError):
            InterestModel(geo_affinity=1.5)
        with pytest.raises(ValueError):
            InterestModel(mean_extra_interests=-1)
        with pytest.raises(ValueError):
            InterestModel(within_category_alpha=-0.5)
        with pytest.raises(ValueError):
            InterestModel(catalog_fraction=0.0)

    def test_build_universe_counts(self):
        model = InterestModel(num_categories=20, international_fraction=0.5)
        universe = model.build_universe(lambda rng: "FR", RngStream(0))
        assert len(universe.categories) == 20
        n_intl = len(universe.international())
        assert 0 < n_intl < 20

    def test_assign_interests_distinct_and_nonempty(self):
        model = InterestModel(num_categories=20)
        universe = model.build_universe(lambda rng: "FR", RngStream(0))
        rng = RngStream(1)
        for i in range(50):
            picks = model.assign_interests(universe, "FR", rng.child(str(i)))
            assert picks
            assert len(picks) == len(set(picks))

    def test_geo_affinity_biases_home_categories(self):
        model = InterestModel(
            num_categories=40, geo_affinity=1.0, international_fraction=0.0
        )
        # Half the categories homed FR, half DE.
        countries = iter(["FR", "DE"] * 20)
        universe = model.build_universe(lambda rng: next(countries), RngStream(0))
        fr_categories = {c.index for c in universe.homed_in("FR")}
        rng = RngStream(2)
        picks = []
        for i in range(40):
            picks.extend(model.assign_interests(universe, "FR", rng.child(str(i))))
        assert set(picks) <= fr_categories

    def test_no_home_falls_back_to_global(self):
        model = InterestModel(num_categories=10, geo_affinity=1.0)
        universe = model.build_universe(lambda rng: "DE", RngStream(0))
        picks = model.assign_interests(universe, "XX", RngStream(3))
        assert picks  # still gets interests despite no homed categories


class TestPoissonDraw:
    def test_zero_mean(self):
        assert poisson_draw(0.0, RngStream(0)) == 0
        assert poisson_draw(-1.0, RngStream(0)) == 0

    def test_mean_approximation(self):
        rng = RngStream(4)
        draws = [poisson_draw(3.0, rng) for _ in range(3000)]
        assert sum(draws) / len(draws) == pytest.approx(3.0, rel=0.1)

    def test_non_negative_integers(self):
        rng = RngStream(5)
        for _ in range(100):
            value = poisson_draw(1.5, rng)
            assert isinstance(value, int)
            assert value >= 0
