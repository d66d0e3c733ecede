"""Tests for the Observer: spans, counters, gauges, disabled no-op."""

import pytest

from repro.obs import NULL_OBSERVER, Observer
from repro.obs.spans import _NULL_SPAN


class FakeClock:
    """Deterministic monotonic clock advancing a fixed step per read."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestSpans:
    def test_single_span_records_elapsed(self):
        obs = Observer(clock=FakeClock(step=1.0))
        with obs.span("phase"):
            pass
        stat = obs.span_stats["phase"]
        assert stat.count == 1
        assert stat.total_s == pytest.approx(1.0)

    def test_nested_spans_build_hierarchical_paths(self):
        obs = Observer(clock=FakeClock())
        with obs.span("crawl"):
            with obs.span("day"):
                with obs.span("sweep"):
                    pass
                with obs.span("browse"):
                    pass
        assert set(obs.span_stats) == {
            "crawl",
            "crawl/day",
            "crawl/day/sweep",
            "crawl/day/browse",
        }

    def test_repeated_spans_aggregate(self):
        clock = FakeClock(step=1.0)
        obs = Observer(clock=clock)
        for _ in range(3):
            with obs.span("day"):
                clock.now += 2.0  # make the span 3s wall time
        stat = obs.span_stats["day"]
        assert stat.count == 3
        assert stat.total_s == pytest.approx(9.0)
        assert stat.min_s == pytest.approx(3.0)
        assert stat.max_s == pytest.approx(3.0)

    def test_record_span_respects_current_stack(self):
        obs = Observer(clock=FakeClock())
        with obs.span("search"):
            obs.record_span("one_hop", 0.25)
            obs.record_span("one_hop", 0.75)
        stat = obs.span_stats["search/one_hop"]
        assert stat.count == 2
        assert stat.total_s == pytest.approx(1.0)
        assert stat.min_s == pytest.approx(0.25)
        assert stat.max_s == pytest.approx(0.75)

    def test_stack_unwinds_after_exception(self):
        obs = Observer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                raise RuntimeError("boom")
        with obs.span("after"):
            pass
        # "after" is a root span, not "outer/after".
        assert "after" in obs.span_stats
        assert "outer" in obs.span_stats


class TestCountersAndGauges:
    def test_count_accumulates(self):
        obs = Observer()
        obs.count("browses")
        obs.count("browses", 4)
        assert obs.counters["browses"] == 5

    def test_gauge_overwrites(self):
        obs = Observer()
        obs.gauge("rate", 0.5)
        obs.gauge("rate", 0.9)
        assert obs.gauges["rate"] == 0.9

    def test_merge_counters_prefixes_and_adds(self):
        obs = Observer()
        obs.count("faults/retries", 1)
        obs.merge_counters({"retries": 2, "drops": 3}, prefix="faults/")
        assert obs.counters == {"faults/retries": 3, "faults/drops": 3}


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        obs = Observer(enabled=False)
        assert obs.span("anything") is _NULL_SPAN
        with obs.span("anything"):
            pass
        assert obs.span_stats == {}

    def test_disabled_records_nothing(self):
        obs = Observer(enabled=False)
        obs.count("c")
        obs.gauge("g", 1.0)
        obs.record_span("s", 1.0)
        obs.merge_counters({"x": 1})
        assert obs.counters == {}
        assert obs.gauges == {}
        assert obs.span_stats == {}

    def test_null_observer_is_disabled(self):
        assert NULL_OBSERVER.enabled is False
