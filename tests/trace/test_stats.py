"""Tests for trace statistics (Table 1 / Figures 1-3 machinery)."""

import pytest

from repro.trace.stats import (
    daily_counts,
    discovery_curve,
    general_characteristics,
    new_files_per_client_per_day,
)
from tests.conftest import build_trace, make_file


class TestGeneralCharacteristics:
    def test_counts(self):
        trace = build_trace(
            {1: {0: ["a"], 1: []}, 3: {0: ["a", "b"]}},
            files=[make_file("a", size=10), make_file("b", size=20)],
        )
        chars = general_characteristics(trace)
        assert chars.duration_days == 3
        assert chars.num_clients == 2
        assert chars.num_free_riders == 1
        assert chars.num_snapshots == 3
        assert chars.num_distinct_files == 2
        assert chars.total_bytes_distinct_files == 30

    def test_free_rider_fraction(self):
        trace = build_trace({1: {0: ["a"], 1: [], 2: [], 3: []}})
        chars = general_characteristics(trace)
        assert chars.free_rider_fraction == pytest.approx(0.75)

    def test_empty_trace(self):
        from repro.trace.model import Trace

        chars = general_characteristics(Trace())
        assert chars.duration_days == 0
        assert chars.free_rider_fraction == 0.0


class TestDailyCounts:
    def test_series(self):
        trace = build_trace({1: {0: ["a", "b"], 1: []}, 2: {0: ["a"]}})
        clients, files, non_empty = daily_counts(trace)
        assert clients.as_dict() == {1.0: 2.0, 2.0: 1.0}
        assert files.as_dict() == {1.0: 2.0, 2.0: 1.0}
        assert non_empty.as_dict() == {1.0: 1.0, 2.0: 1.0}


class TestDiscoveryCurve:
    def test_new_and_total(self):
        trace = build_trace({1: {0: ["a"]}, 2: {0: ["a", "b"]}, 3: {0: ["b"]}})
        new_files, total = discovery_curve(trace)
        assert new_files.as_dict() == {1.0: 1.0, 2.0: 1.0, 3.0: 0.0}
        assert total.as_dict() == {1.0: 1.0, 2.0: 2.0, 3.0: 2.0}

    def test_total_is_monotone_on_generated_trace(self, small_temporal_trace):
        _, total = discovery_curve(small_temporal_trace)
        assert all(b >= a for a, b in zip(total.ys, total.ys[1:]))


class TestNewFilesRate:
    def test_single_day_raises(self):
        trace = build_trace({1: {0: ["a"]}})
        with pytest.raises(ValueError):
            new_files_per_client_per_day(trace)

    def test_rate(self):
        # Day 2: client 0 browses with 2 new files -> 2 new / 1 client.
        trace = build_trace({1: {0: ["a"]}, 2: {0: ["a", "b", "c"]}})
        assert new_files_per_client_per_day(trace) == pytest.approx(2.0)

    def test_positive_on_generated_trace(self, small_temporal_trace):
        assert new_files_per_client_per_day(small_temporal_trace) > 0

