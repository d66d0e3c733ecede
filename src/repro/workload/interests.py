"""The interest-category model that plants semantic and geographic structure.

Files are grouped into categories (think "French rap", "German TV rips",
"Linux ISOs").  Some categories are *homed* in a country — their files are
mostly shared by clients of that country — while others are international.
Clients subscribe to a handful of categories, preferring those homed in
their own country; cache fills and churn then draw mostly from subscribed
categories.

Two dials control the planted structure:

- ``geo_affinity``: probability that a client picks its next interest among
  categories homed in its own country — drives Figures 11/12;
- ``interest_loyalty`` (lives in :class:`~repro.workload.config.WorkloadConfig`):
  probability that a file draw goes through a subscribed category rather
  than the global popularity distribution — drives Figures 13/14/18-21.

Setting either to zero removes the corresponding clustering, which is what
the ablation benchmark does.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.util.rng import RngStream, cumulative_table, stable_choice, weighted_index
from repro.util.validation import check_fraction, check_positive
from repro.util.zipf import zipf_weights


class _LazyNumpy:
    """Defer the numpy import to first use (annotations are strings here).

    ``repro.workload`` sits on the CLI's help/import path (via
    ``repro.runtime.scale``); rebinding the module-global ``np`` on first
    attribute access keeps that baseline RSS numpy-free.
    """

    def __getattr__(self, name):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy()


@dataclass(frozen=True)
class Category:
    """One interest category.

    ``home_country`` is ``None`` for international categories.  ``weight``
    is the category's share of overall interest (Zipf over categories).
    """

    index: int
    home_country: Optional[str]
    weight: float


class InterestUniverse:
    """The set of categories plus per-category file indexes.

    File membership is filled in by the generator (files are created with a
    category index); the universe then precomputes, per category, the
    cumulative intrinsic-weight table (a flat ``array('d')``) used for
    O(log n) popularity-weighted draws within the category.
    """

    def __init__(
        self,
        categories: Sequence[Category],
        within_alpha: Optional[float] = None,
        catalog_fraction: float = 1.0,
    ) -> None:
        if not categories:
            raise ValueError("need at least one category")
        if not 0.0 < catalog_fraction <= 1.0:
            raise ValueError("catalog_fraction must be in (0, 1]")
        self.categories: List[Category] = list(categories)
        self.within_alpha = within_alpha
        self.catalog_fraction = catalog_fraction
        self._files_by_category: Dict[int, List[int]] = {
            c.index: [] for c in categories
        }
        self._cum_by_category: Dict[int, array] = {}

    def add_file(self, file_index: int, category_index: int) -> None:
        self._files_by_category[category_index].append(file_index)

    def finalize(self, file_weights: np.ndarray) -> None:
        """Freeze membership and precompute cumulative weight tables.

        ``file_weights[i]`` is the intrinsic popularity weight of file ``i``;
        it fixes the *ordering* of files within each category.  The actual
        within-category draw weights follow a local Zipf with exponent
        ``within_alpha``: community attention concentrates on the category's
        head regardless of how the category ranks globally.  This gives the
        popularity distribution a multi-replica body (files the whole
        community holds) on top of the singleton tail.
        """
        file_weights = np.asarray(file_weights, dtype=float)
        for cat_index, members in self._files_by_category.items():
            if not members:
                continue
            global_w = file_weights[np.asarray(members)]
            if self.within_alpha is None:
                # Community attention mirrors global popularity: the
                # category's draw weights are the members' intrinsic
                # weights.  Because intrinsic ranks are spread over the
                # whole universe, this concentrates draws on the few
                # members that happen to rank high globally — the
                # configuration that best reproduces the paper's
                # rare-vs-popular clustering contrast.
                weights = global_w.copy()
                order = np.argsort(-global_w, kind="stable")
                local_rank = np.empty(len(members), dtype=float)
                local_rank[order] = np.arange(1, len(members) + 1)
            else:
                order = np.argsort(-global_w, kind="stable")
                local_rank = np.empty(len(members), dtype=float)
                local_rank[order] = np.arange(1, len(members) + 1)
                weights = local_rank**-self.within_alpha
            # The community's *active catalog*: files ranked beyond the
            # catalog cut are never drawn via this category (they remain
            # reachable through the global path only).
            cut = max(1, int(round(self.catalog_fraction * len(members))))
            weights[local_rank > cut] = 0.0
            self._cum_by_category[cat_index] = cumulative_table(weights)

    def sample_file(self, category_index: int, rng: RngStream) -> Optional[int]:
        """Popularity-weighted draw within a category (``None`` if empty)."""
        members = self._files_by_category.get(category_index)
        if not members:
            return None
        cum = self._cum_by_category[category_index]
        return members[weighted_index(rng.py, cum, cum[-1])]

    def homed_in(self, country: str) -> List[Category]:
        return [c for c in self.categories if c.home_country == country]

    def international(self) -> List[Category]:
        return [c for c in self.categories if c.home_country is None]


@dataclass
class InterestModel:
    """Builds the category universe and assigns client interests.

    Parameters
    ----------
    num_categories:
        Total categories in the universe.
    international_fraction:
        Fraction of categories without a home country.
    category_alpha:
        Zipf exponent over category interest weights.
    geo_affinity:
        Probability a client's next interest pick is restricted to
        categories homed in its own country (falls back to the global pick
        when the country has none).
    mean_extra_interests:
        Interests per client are ``1 + Poisson(mean_extra_interests)``.
    within_category_alpha:
        Zipf exponent of draw weights *inside* a category (community
        attention concentration); ``None`` (default) uses the members'
        intrinsic global weights instead of a local Zipf.
    catalog_fraction:
        Fraction of a category's files that the community actively trades
        (the rest are only reachable via the global path).  Lower values
        concentrate community draws, thickening the popularity body.
    """

    num_categories: int = 300
    international_fraction: float = 0.3
    category_alpha: float = 0.4
    geo_affinity: float = 0.7
    mean_extra_interests: float = 1.5
    within_category_alpha: Optional[float] = None
    catalog_fraction: float = 1.0

    def __post_init__(self) -> None:
        check_positive("num_categories", self.num_categories)
        check_fraction("international_fraction", self.international_fraction)
        check_fraction("geo_affinity", self.geo_affinity)
        if self.mean_extra_interests < 0:
            raise ValueError("mean_extra_interests must be >= 0")
        if self.within_category_alpha is not None and self.within_category_alpha < 0:
            raise ValueError("within_category_alpha must be >= 0")
        if not 0.0 < self.catalog_fraction <= 1.0:
            raise ValueError("catalog_fraction must be in (0, 1]")

    def build_universe(
        self, country_sampler, rng: RngStream
    ) -> InterestUniverse:
        """Create categories; ``country_sampler(rng)`` draws home countries
        (typically ``CountryModel.sample_country``), so category homes follow
        the client country mix."""
        weights = zipf_weights(self.num_categories, self.category_alpha)
        categories: List[Category] = []
        for i in range(self.num_categories):
            if rng.py.random() < self.international_fraction:
                home: Optional[str] = None
            else:
                home = country_sampler(rng)
            categories.append(Category(index=i, home_country=home, weight=float(weights[i])))
        return InterestUniverse(
            categories,
            within_alpha=self.within_category_alpha,
            catalog_fraction=self.catalog_fraction,
        )

    def assign_interests(
        self, universe: InterestUniverse, country: str, rng: RngStream
    ) -> List[int]:
        """Pick this client's interest categories (distinct, >= 1)."""
        n_interests = 1 + poisson_draw(self.mean_extra_interests, rng)
        homed = universe.homed_in(country)
        all_cats = universe.categories
        picks: List[int] = []
        attempts = 0
        while len(picks) < n_interests and attempts < 20 * n_interests:
            attempts += 1
            pool = homed if (homed and rng.py.random() < self.geo_affinity) else all_cats
            cat = stable_choice(rng.py, pool, [c.weight for c in pool])
            if cat.index not in picks:
                picks.append(cat.index)
        return picks


def poisson_draw(mean: float, rng: RngStream) -> int:
    """Poisson draw via the python stream (keeps numpy stream untouched)."""
    if mean <= 0:
        return 0
    import math

    limit = math.exp(-mean)
    k = 0
    product = rng.py.random()
    while product > limit:
        k += 1
        product *= rng.py.random()
    return k
