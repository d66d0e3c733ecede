"""Tests for pessimistic cache extrapolation."""

import pytest

from repro.trace.extrapolation import (
    ExtrapolationConfig,
    eligible_clients,
    extrapolate,
)
from tests.conftest import build_trace


class TestConfig:
    def test_defaults_match_paper(self):
        config = ExtrapolationConfig()
        assert config.min_connections == 5
        assert config.min_span_days == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtrapolationConfig(min_connections=0)
        with pytest.raises(ValueError):
            ExtrapolationConfig(min_span_days=0)


class TestEligibility:
    def test_too_few_connections(self):
        trace = build_trace({d: {0: ["a"]} for d in (1, 5, 12, 20)})
        assert eligible_clients(trace, ExtrapolationConfig()) == []

    def test_span_too_short(self):
        trace = build_trace({d: {0: ["a"]} for d in (1, 2, 3, 4, 5)})
        assert eligible_clients(trace, ExtrapolationConfig()) == []

    def test_eligible(self):
        trace = build_trace({d: {0: ["a"]} for d in (1, 3, 5, 8, 12)})
        assert eligible_clients(trace, ExtrapolationConfig()) == [0]

    def test_custom_thresholds(self):
        trace = build_trace({d: {0: ["a"]} for d in (1, 4)})
        config = ExtrapolationConfig(min_connections=2, min_span_days=3)
        assert eligible_clients(trace, config) == [0]


class TestExtrapolate:
    def config(self):
        return ExtrapolationConfig(min_connections=2, min_span_days=2)

    def test_gap_filled_with_intersection(self):
        trace = build_trace({1: {0: ["a", "b"]}, 4: {0: ["b", "c"]}})
        out = extrapolate(trace, self.config())
        assert out.cache(0, 2) == frozenset({"b"})
        assert out.cache(0, 3) == frozenset({"b"})

    def test_real_observations_kept_verbatim(self):
        trace = build_trace({1: {0: ["a", "b"]}, 4: {0: ["b", "c"]}})
        out = extrapolate(trace, self.config())
        assert out.cache(0, 1) == frozenset({"a", "b"})
        assert out.cache(0, 4) == frozenset({"b", "c"})

    def test_no_extrapolation_outside_observation_window(self):
        trace = build_trace({2: {0: ["a"]}, 5: {0: ["a"]}})
        out = extrapolate(trace, self.config())
        assert out.cache(0, 1) is None
        assert out.cache(0, 6) is None

    def test_adjacent_days_no_filler(self):
        trace = build_trace({1: {0: ["a"]}, 2: {0: ["b"]}})
        config = ExtrapolationConfig(min_connections=2, min_span_days=1)
        out = extrapolate(trace, config)
        assert out.cache(0, 1) == frozenset({"a"})
        assert out.cache(0, 2) == frozenset({"b"})
        assert out.num_snapshots == 2

    def test_disjoint_caches_give_empty_filler(self):
        trace = build_trace({1: {0: ["a"]}, 4: {0: ["z"]}})
        out = extrapolate(trace, self.config())
        assert out.cache(0, 2) == frozenset()

    def test_ineligible_clients_dropped(self):
        trace = build_trace({1: {0: ["a"], 1: ["b"]}, 4: {0: ["a"]}})
        out = extrapolate(trace, self.config())
        assert set(out.clients) == {0}

    def test_pessimism_never_adds_files(self):
        """The filler is always a subset of both neighbouring caches."""
        trace = build_trace(
            {1: {0: ["a", "b", "c"]}, 5: {0: ["b", "c", "d"]}, 9: {0: ["c"]}}
        )
        out = extrapolate(trace, self.config())
        for day in range(1, 10):
            cache = out.cache(0, day)
            assert cache is not None
            days = [1, 5, 9]
            prev_day = max(d for d in days if d <= day)
            next_day = min(d for d in days if d >= day)
            prev_cache = trace.cache(0, prev_day)
            next_cache = trace.cache(0, next_day)
            assert cache <= (prev_cache | next_cache)

    def test_generated_trace_extrapolation(self, small_temporal_trace):
        out = extrapolate(small_temporal_trace)
        assert len(out.clients) > 0
        # Every kept client satisfies the thresholds.
        for client_id in out.clients:
            days = small_temporal_trace.observation_days(client_id)
            assert len(days) >= 5
            assert days[-1] - days[0] >= 10
        # Extrapolation only adds snapshots, never removes observed ones.
        for client_id in out.clients:
            original = small_temporal_trace.observation_days(client_id)
            extrapolated = out.observation_days(client_id)
            assert set(original) <= set(extrapolated)


class TestFillModes:
    def config(self, fill):
        return ExtrapolationConfig(min_connections=2, min_span_days=2, fill=fill)

    def test_invalid_fill_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="fill"):
            ExtrapolationConfig(fill="interpolate")

    def test_union_fill(self):
        trace = build_trace({1: {0: ["a", "b"]}, 4: {0: ["b", "c"]}})
        out = extrapolate(trace, self.config("union"))
        assert out.cache(0, 2) == frozenset({"a", "b", "c"})

    def test_previous_fill(self):
        trace = build_trace({1: {0: ["a", "b"]}, 4: {0: ["b", "c"]}})
        out = extrapolate(trace, self.config("previous"))
        assert out.cache(0, 2) == frozenset({"a", "b"})
        assert out.cache(0, 3) == frozenset({"a", "b"})

    def test_per_cache_ordering(self):
        """intersection <= previous <= union, per filled day."""
        trace = build_trace(
            {1: {0: ["a", "b", "c"]}, 5: {0: ["b", "c", "d", "e"]}}
        )
        inter = extrapolate(trace, self.config("intersection"))
        prev = extrapolate(trace, self.config("previous"))
        union = extrapolate(trace, self.config("union"))
        for day in (2, 3, 4):
            assert inter.cache(0, day) <= prev.cache(0, day)
            assert prev.cache(0, day) <= union.cache(0, day)

    def test_experiment_runs(self):
        from repro.runtime import RunContext, Scale
        from repro.experiments.extension_experiments import (
            run_extrapolation_ablation,
        )

        result = run_extrapolation_ablation(RunContext(scale=Scale.SMALL))
        assert result.metric("intersection_p1") > 0
        assert result.metric("union_p1") > 0
