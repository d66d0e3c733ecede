"""Tests for hit-rate and load accounting."""

from collections import Counter

import pytest

from repro.core.metrics import HitRateAccumulator, LoadTracker


class TestHitRateAccumulator:
    def test_zero_requests(self):
        rates = HitRateAccumulator()
        assert rates.hit_rate == 0.0
        assert rates.one_hop_hit_rate == 0.0
        assert rates.misses == 0

    def test_rates(self):
        rates = HitRateAccumulator(
            requests=10, hits=4, one_hop_hits=3, two_hop_hits=1
        )
        assert rates.hit_rate == pytest.approx(0.4)
        assert rates.one_hop_hit_rate == pytest.approx(0.3)
        assert rates.misses == 6


class TestLoadTracker:
    def test_record_and_totals(self):
        load = LoadTracker()
        load.messages[1] += 1
        load.messages[1] += 2
        load.messages[2] += 1
        assert load.total_messages == 4
        assert load.max_load == 3
        assert load.mean_load() == pytest.approx(2.0)

    def test_empty(self):
        load = LoadTracker()
        assert load.max_load == 0
        assert load.mean_load() == 0.0
        assert load.by_rank() == []

    def test_by_rank_sorted(self):
        load = LoadTracker(Counter({1: 5, 2: 9, 3: 1}))
        ranks = load.by_rank()
        assert [value for _, value in ranks] == [9, 5, 1]
        assert [rank for rank, _ in ranks] == [0, 1, 2]

    def test_rank_series(self):
        load = LoadTracker(Counter({1: 3, 2: 7}))
        series = load.rank_series(name="x")
        assert series.name == "x"
        assert series.ys == [7.0, 3.0]
