"""Tests for RunMetrics serialisation, schema validation, rendering."""

import json
import math

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    Histogram,
    Observer,
    RunMetrics,
    render_profile,
    validate_metrics,
)


def sample_metrics() -> RunMetrics:
    obs = Observer(clock=iter(range(100)).__next__)
    with obs.span("crawl"):
        with obs.span("sweep"):
            pass
    obs.count("crawler/browse_attempts", 12)
    obs.gauge("faults/delivery_rate", 0.97)
    obs.hist("crawl/latency", 0.5)
    return obs.report(run={"command": "crawl", "seed": 3})


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        metrics = sample_metrics()
        again = RunMetrics.from_json(metrics.to_json())
        assert again.to_dict() == metrics.to_dict()

    def test_file_round_trip(self, tmp_path):
        metrics = sample_metrics()
        path = str(tmp_path / "metrics.json")
        metrics.write(path)
        assert RunMetrics.read(path).to_dict() == metrics.to_dict()

    def test_report_output_is_schema_valid(self):
        payload = json.loads(sample_metrics().to_json())
        assert validate_metrics(payload) == []

    def test_schema_version_is_stamped(self):
        assert sample_metrics().to_dict()["schema"] == SCHEMA_VERSION


class TestValidation:
    def test_non_object_payload(self):
        assert validate_metrics([1, 2]) != []

    def test_wrong_schema_version(self):
        payload = sample_metrics().to_dict()
        payload["schema"] = "repro.metrics/999"
        assert any("schema" in p for p in validate_metrics(payload))

    def test_missing_section(self):
        payload = sample_metrics().to_dict()
        del payload["counters"]
        assert any("counters" in p for p in validate_metrics(payload))

    def test_non_numeric_counter(self):
        payload = sample_metrics().to_dict()
        payload["counters"]["bad"] = "many"
        assert any("bad" in p for p in validate_metrics(payload))

    def test_span_missing_field(self):
        payload = sample_metrics().to_dict()
        del payload["spans"]["crawl"]["total_s"]
        assert any("total_s" in p for p in validate_metrics(payload))

    def test_span_unknown_field(self):
        payload = sample_metrics().to_dict()
        payload["spans"]["crawl"]["p99_s"] = 1.0
        assert any("p99_s" in p for p in validate_metrics(payload))

    def test_from_dict_raises_on_invalid(self):
        payload = sample_metrics().to_dict()
        payload["schema"] = "nope"
        with pytest.raises(ValueError, match="invalid metrics"):
            RunMetrics.from_dict(payload)


class TestSchemaVersion:
    def test_v1_payload_is_refused(self):
        payload = sample_metrics().to_dict()
        payload["schema"] = "repro.metrics/1"
        del payload["histograms"]
        assert validate_metrics(payload) == [
            "schema must be 'repro.metrics/2', got 'repro.metrics/1'"
        ]

    def test_v2_round_trips_histograms(self):
        metrics = sample_metrics()
        assert metrics.histograms  # sample records one
        again = RunMetrics.from_json(metrics.to_json())
        assert again.to_dict() == metrics.to_dict()
        assert again.histogram("crawl/latency").count == 1


class TestNonFinite:
    def test_to_json_refuses_nan(self):
        metrics = sample_metrics()
        metrics.gauges["bad"] = float("nan")
        with pytest.raises(ValueError):
            metrics.to_json()

    def test_to_json_refuses_infinity(self):
        metrics = sample_metrics()
        metrics.counters["bad"] = math.inf
        with pytest.raises(ValueError):
            metrics.to_json()

    @pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
    def test_validate_reports_non_finite_counter(self, bad):
        payload = sample_metrics().to_dict()
        payload["counters"]["bad"] = bad
        assert any("finite" in p for p in validate_metrics(payload))

    def test_validate_reports_non_finite_span_field(self):
        payload = sample_metrics().to_dict()
        payload["spans"]["crawl"]["total_s"] = math.inf
        assert any("finite" in p for p in validate_metrics(payload))

    def test_validate_reports_non_finite_histogram_field(self):
        payload = sample_metrics().to_dict()
        payload["histograms"]["crawl/latency"]["sum"] = float("nan")
        assert any("finite" in p for p in validate_metrics(payload))

    def test_validate_reports_non_finite_run_value(self):
        payload = sample_metrics().to_dict()
        payload["run"]["seed"] = math.inf
        assert any("finite" in p for p in validate_metrics(payload))


class TestHistogramValidation:
    def test_counts_length_must_be_bounds_plus_one(self):
        payload = sample_metrics().to_dict()
        payload["histograms"]["crawl/latency"]["counts"] = [1.0]
        assert any("buckets" in p for p in validate_metrics(payload))

    def test_count_must_equal_bucket_sum(self):
        payload = sample_metrics().to_dict()
        payload["histograms"]["crawl/latency"]["count"] = 99.0
        assert any("disagrees" in p for p in validate_metrics(payload))

    def test_bounds_must_increase(self):
        payload = sample_metrics().to_dict()
        hist = payload["histograms"]["crawl/latency"]
        hist["bounds"] = [2.0, 1.0]
        hist["counts"] = [0.0, 1.0, 0.0]
        assert any("increasing" in p for p in validate_metrics(payload))

    def test_unknown_fields_are_reported(self):
        payload = sample_metrics().to_dict()
        payload["histograms"]["crawl/latency"]["p50"] = 0.5
        assert any("unknown fields" in p for p in validate_metrics(payload))


class TestRender:
    def test_profile_mentions_spans_and_counters(self):
        text = render_profile(sample_metrics())
        assert "crawl/sweep" in text
        assert "crawler/browse_attempts" in text
        assert "faults/delivery_rate" in text
        assert "command=crawl" in text

    def test_profile_shows_histograms(self):
        text = render_profile(sample_metrics())
        assert "crawl/latency" in text
        assert "p99" in text

    def test_empty_metrics_render(self):
        assert "no observability data" in render_profile(RunMetrics())

    def test_max_rows_truncates_span_table(self):
        metrics = RunMetrics(
            spans={
                f"span{i:02d}": {
                    "count": 1.0,
                    "total_s": float(100 - i),
                    "min_s": 0.0,
                    "max_s": 0.0,
                }
                for i in range(10)
            }
        )
        text = render_profile(metrics, max_rows=3)
        assert "span00" in text
        assert "span02" in text
        assert "span03" not in text

    def test_spans_sort_by_total_desc_with_stable_ties(self):
        stat = {"count": 1.0, "total_s": 1.0, "min_s": 0.0, "max_s": 0.0}
        metrics = RunMetrics(
            spans={
                "zeta": dict(stat),
                "alpha": dict(stat),
                "big": {**stat, "total_s": 5.0},
            }
        )
        text = render_profile(metrics)
        lines = [line for line in text.splitlines()
                 if line.startswith(("big", "alpha", "zeta"))]
        # Widest first; equal totals break ties by path, alphabetically.
        assert [line.split()[0] for line in lines] == [
            "big", "alpha", "zeta"
        ]

    def test_render_rehydrates_histogram_percentiles(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.record(1.5)
        metrics = RunMetrics(histograms={"h": hist.as_dict()})
        text = render_profile(metrics)
        assert "h" in text
        assert "1.5" in text  # clamped p-values equal the single sample
