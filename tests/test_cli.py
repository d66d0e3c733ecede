"""Tests for the command-line interface."""

import argparse
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import _scale, build_parser, main
from repro.runtime.scale import Scale


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.strategy == "lru"
        assert args.list_sizes == [5, 10, 20]
        assert not args.two_hop
        assert args.loss_rate == 0.0
        assert args.availability == 1.0

    def test_crawl_fault_defaults_are_off(self):
        args = build_parser().parse_args(["crawl"])
        assert args.loss_rate == 0.0
        assert args.peer_downtime == 0.0
        assert args.server_crash_day is None
        assert args.retries == 0


class TestScaleArg:
    def test_known_scales(self):
        assert _scale("tiny") is Scale.TINY
        assert _scale("small") is Scale.SMALL
        assert _scale("default") is Scale.DEFAULT
        assert _scale("large") is Scale.LARGE

    def test_unknown_scale_is_an_argparse_error(self):
        with pytest.raises(argparse.ArgumentTypeError, match="unknown scale"):
            _scale("medium")

    def test_unknown_scale_rejected_at_the_command_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--scale", "medium"])
        assert excinfo.value.code == 2
        assert "medium" in capsys.readouterr().err


class TestGenerateAndStats:
    def test_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl.gz"
        # Use a tiny custom run by reusing the small scale.
        rc = main(["generate", "--scale", "small", "--seed", "5", "-o", str(out)])
        assert rc == 0
        assert out.exists()
        rc = main(["stats", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "filtered" in captured
        assert "extrapolated" in captured

    def test_anonymize_flag(self, tmp_path, capsys):
        out = tmp_path / "anon.jsonl.gz"
        rc = main(
            ["generate", "--scale", "small", "--seed", "5", "-o", str(out),
             "--anonymize"]
        )
        assert rc == 0
        from repro.trace.io import load_trace

        trace = load_trace(out)
        # anonymized nicknames are hex tokens, not pool names
        nickname = next(iter(trace.clients.values())).nickname
        assert len(nickname) == 8
        int(nickname, 16)


class TestSearchCommand:
    def test_synthetic_search(self, capsys):
        rc = main(
            ["search", "--scale", "small", "--seed", "3",
             "--list-sizes", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "LRU semantic search" in out
        assert "hit rate" in out

    def test_two_hop_flag(self, capsys):
        rc = main(
            ["search", "--scale", "small", "--seed", "3",
             "--list-sizes", "5", "--two-hop", "--strategy", "history"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HISTORY" in out
        assert "two-hop" in out

    def test_search_on_saved_trace(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["generate", "--scale", "small", "--seed", "4", "-o", str(out)])
        capsys.readouterr()
        rc = main(["search", "--trace", str(out), "--list-sizes", "5"])
        assert rc == 0
        assert "hit rate" in capsys.readouterr().out

    def test_bad_config_fails_before_the_trace_is_built(self, monkeypatch):
        from repro.workload.generator import SyntheticWorkloadGenerator

        def refuse(self):
            pytest.fail("the trace was generated before the config check")

        monkeypatch.setattr(SyntheticWorkloadGenerator, "generate_static", refuse)
        assert main(["search", "--availability", "1.5"]) == 2


class TestExperimentCommand:
    def test_known_id(self, capsys):
        rc = main(["experiment", "--scale", "small", "table2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table-2" in out

    def test_unknown_id(self, capsys):
        rc = main(["experiment", "--scale", "small", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_id_table_is_complete(self):
        import repro.experiments as experiments
        from repro.runtime.registry import load_all

        for spec in load_all():
            assert getattr(experiments, spec.runner_name) is spec.runner

    def test_id_table_matches_registry(self, capsys):
        from repro.runtime.registry import load_all

        assert main(["experiment", "--list"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        listed = {row.split("  ")[0] for row in rows if row.strip()}
        expected = {
            spec.name + (f" ({', '.join(spec.aliases)})" if spec.aliases else "")
            for spec in load_all()
        }
        assert listed == expected

    def test_list_prints_registry(self, capsys):
        rc = main(["experiment", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Registered experiments" in out
        assert "fig18" in out
        assert "Figure 18" in out

    def test_list_without_id_is_the_default(self, capsys):
        rc = main(["experiment"])
        assert rc == 0
        assert "Registered experiments" in capsys.readouterr().out

    def test_unknown_id_names_valid_choices(self, capsys):
        rc = main(["experiment", "fig99"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig18" in err  # the valid-name list is part of the message


class TestRunAllCommand:
    def test_subset_writes_manifests_then_skips(self, tmp_path, capsys):
        results = tmp_path / "results"
        argv = ["run-all", "--scale", "tiny", "--results-dir", str(results),
                "--only", "table2", "fig18"]
        rc = main(argv)
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 run, 0 skipped, 0 failed" in out
        assert (results / "table2.manifest.json").exists()
        assert (results / "fig18.manifest.json").exists()

        rc = main(argv)
        assert rc == 0
        assert "0 run, 2 skipped, 0 failed" in capsys.readouterr().out

    def test_changed_seed_invalidates_the_manifest(self, tmp_path, capsys):
        results = tmp_path / "results"
        base = ["run-all", "--scale", "tiny", "--results-dir", str(results),
                "--only", "table2"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "7"]) == 0
        assert "1 run, 0 skipped" in capsys.readouterr().out

    def test_unknown_only_name_errors(self, tmp_path, capsys):
        rc = main(["run-all", "--results-dir", str(tmp_path), "--only", "nope"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [[], ["--workers", "1"]])
    def test_only_name_in_a_fresh_process(self, tmp_path, workers):
        """In-process tests run after something already imported the
        experiments; a fresh interpreter starts with an empty registry."""
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run-all", "--scale", "tiny",
             "--results-dir", str(tmp_path), "--only", "fig1", *workers],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert "1 run, 0 skipped, 0 failed" in result.stdout
        assert (tmp_path / "fig1.manifest.json").exists()


class TestAnalyzeCommand:
    def test_synthetic(self, capsys):
        rc = main(["analyze", "--scale", "small", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "autonomous systems" in out
        assert "common file" in out


class TestCrawlCommand:
    def test_crawl_and_save(self, tmp_path, capsys):
        out = tmp_path / "crawl.jsonl.gz"
        rc = main(
            ["crawl", "--clients", "40", "--days", "2", "--seed", "1",
             "-o", str(out)]
        )
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "snapshots" in captured
        # Faults off: no degradation accounting clutters the output.
        assert "degradation report" not in captured

    def test_crawl_under_faults_reports_degradation(self, capsys):
        rc = main(
            ["crawl", "--clients", "40", "--days", "2", "--seed", "1",
             "--loss-rate", "0.05", "--server-crash-day", "1",
             "--retries", "2"]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "degradation report" in captured
        assert "delivery rate" in captured
        assert "server crashes: 1" in captured


class TestNonPositiveSizes:
    """Sizes below one are argument errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["crawl", "--clients", "0"],
            ["crawl", "--days", "0"],
            ["crawl", "--days", "-3"],
            ["search", "--list-sizes", "5", "0"],
        ],
        ids=["clients", "days", "negative-days", "list-sizes"],
    )
    def test_rejected_in_a_fresh_process(self, argv):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert f"{argv[1]}: must be >= 1" in result.stderr
        assert "Traceback" not in result.stderr


class TestOutOfRangeFlags:
    """A value its config refuses is one ``error:`` line and exit 2,
    before any work: the config's own check, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["crawl", "--loss-rate", "2"], "loss_rate must be in [0, 1]"),
            (["crawl", "--timeout", "-1"], "deadline must be > 0"),
            (["crawl", "--server-crash-day", "-1"],
             "server_crash_day must be >= 0"),
            (["crawl", "--retries", "-3"], "max_retries must be >= 0"),
            (["serve", "--reply-limit", "0"], "reply_limit must be > 0"),
            (["search", "--availability", "0.5", "--two-hop"],
             "availability modelling is one-hop only"),
        ],
        ids=["loss-rate", "timeout", "crash-day", "retries", "reply-limit",
             "two-hop-availability"],
    )
    def test_exits_two_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


#: Each rejected interval and the bound its message names: a thread
#: wait or sleep overflows above ``threading.TIMEOUT_MAX``.
BAD_INTERVALS = {
    "0": "must be > 0",
    "-1": "must be > 0",
    "1e10": f"must be <= {threading.TIMEOUT_MAX:g}",
    "inf": f"must be <= {threading.TIMEOUT_MAX:g}",
}


class TestNonPositiveIntervals:
    """Intervals of zero or less, or beyond what a thread can wait, are
    argument errors (exit 2), raised before any work: no trace is built
    and no file is read."""

    @pytest.mark.parametrize("value", BAD_INTERVALS)
    def test_search_telemetry_interval(self, value, tmp_path, capsys):
        telemetry = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--scale", "tiny", "--list-sizes", "5",
                  "--telemetry-out", str(telemetry),
                  "--telemetry-interval", value])
        assert excinfo.value.code == 2
        message = BAD_INTERVALS[value]
        assert f"--telemetry-interval: {message}" in capsys.readouterr().err
        assert not telemetry.exists()

    @pytest.mark.parametrize("value", BAD_INTERVALS)
    def test_tail_interval(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tail", "--follow", "--interval", value,
                  str(tmp_path / "missing.jsonl")])
        assert excinfo.value.code == 2
        assert f"--interval: {BAD_INTERVALS[value]}" in capsys.readouterr().err


class TestSearchFaultFlags:
    def test_loss_rate_adds_fault_columns(self, capsys):
        rc = main(
            ["search", "--scale", "small", "--seed", "3",
             "--list-sizes", "5", "--loss-rate", "0.2", "--evict-dead"]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "probes lost" in captured
        assert "evictions" in captured


class TestObservabilityFlags:
    def test_crawl_profile_and_metrics_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        rc = main(
            ["crawl", "--clients", "40", "--days", "2", "--seed", "1",
             "--profile", "--metrics-out", str(metrics_path)]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "timing spans" in captured
        assert "crawl/day/sweep_nicknames" in captured
        assert metrics_path.exists()

        import json

        from repro.obs import RunMetrics, validate_metrics

        payload = json.loads(metrics_path.read_text())
        assert validate_metrics(payload) == []
        metrics = RunMetrics.from_dict(payload)
        # Spans cover the crawler and network layers; counters unify the
        # crawler's and the fault injector's accounting.
        assert "crawl/day/network/advance_day" in metrics.spans
        assert "crawler/browse_attempts" in metrics.counters
        assert "faults/messages_total" in metrics.counters
        assert metrics.run["command"] == "crawl"

    def test_search_metrics_out(self, tmp_path, capsys):
        import json

        from repro.obs import validate_metrics

        metrics_path = tmp_path / "metrics.json"
        rc = main(
            ["search", "--scale", "small", "--seed", "3",
             "--list-sizes", "5", "--metrics-out", str(metrics_path)]
        )
        assert rc == 0
        payload = json.loads(metrics_path.read_text())
        assert validate_metrics(payload) == []
        assert "search@5/search/request_loop" in payload["spans"]
        assert payload["counters"]["search/requests"] > 0

    def test_obs_flags_leave_output_identical(self, tmp_path, capsys):
        plain_out = tmp_path / "plain.jsonl.gz"
        obs_out = tmp_path / "observed.jsonl.gz"
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "-o", str(plain_out)])
        capsys.readouterr()
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "--profile", "-o", str(obs_out)])
        capsys.readouterr()
        import gzip

        assert gzip.decompress(obs_out.read_bytes()) == gzip.decompress(
            plain_out.read_bytes()
        )

    def test_experiment_accepts_obs_flags(self, tmp_path, capsys):
        import json

        from repro.obs import validate_metrics

        metrics_path = tmp_path / "metrics.json"
        rc = main(
            ["experiment", "fig5", "--scale", "small",
             "--metrics-out", str(metrics_path)]
        )
        assert rc == 0
        payload = json.loads(metrics_path.read_text())
        assert validate_metrics(payload) == []
        assert "experiment/fig5" in payload["spans"]


class TestTraceOutFlag:
    def test_crawl_trace_out_is_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        rc = main(
            ["crawl", "--clients", "40", "--days", "2", "--seed", "1",
             "--trace-out", str(trace_path)]
        )
        assert rc == 0
        assert "Wrote Chrome trace" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "crawl" in names
        assert "crawl/day/browse" in names
        # Message hops are instant events nested under their phase.
        assert any(
            e["ph"] == "i" and e.get("cat") == "hop" for e in events
        )

    def test_search_trace_out_carries_query_events(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        rc = main(
            ["search", "--scale", "small", "--seed", "3", "--two-hop",
             "--list-sizes", "5", "--trace-out", str(trace_path)]
        )
        assert rc == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        queries = [
            e for e in payload["traceEvents"] if e.get("cat") == "query"
        ]
        assert queries
        assert all("outcome" in e["args"] for e in queries)

    def test_trace_out_leaves_output_identical(self, tmp_path, capsys):
        plain_out = tmp_path / "plain.jsonl.gz"
        traced_out = tmp_path / "traced.jsonl.gz"
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "-o", str(plain_out)])
        capsys.readouterr()
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "--trace-out", str(tmp_path / "t.json"), "-o",
              str(traced_out)])
        capsys.readouterr()
        import gzip

        assert gzip.decompress(traced_out.read_bytes()) == gzip.decompress(
            plain_out.read_bytes()
        )


class TestMetricsDiffCommand:
    def write_metrics(self, tmp_path, name, requests=100.0):
        from repro.obs import Observer

        obs = Observer()
        obs.count("search/requests", requests)
        obs.gauge("search/hit_rate", 0.9)
        obs.hist("search/hops", 3.0)
        path = tmp_path / name
        obs.report(run={"command": "test"}).write(str(path))
        return str(path)

    def test_identical_files_exit_zero(self, tmp_path, capsys):
        base = self.write_metrics(tmp_path, "base.json")
        cur = self.write_metrics(tmp_path, "cur.json")
        rc = main(["metrics", "diff", base, cur])
        assert rc == 0
        assert "all metrics within tolerance" in capsys.readouterr().out

    def test_regression_exits_one_with_report(self, tmp_path, capsys):
        base = self.write_metrics(tmp_path, "base.json")
        cur = self.write_metrics(tmp_path, "cur.json", requests=150.0)
        rc = main(["metrics", "diff", base, cur])
        assert rc == 1
        out = capsys.readouterr().out
        assert "regressions" in out
        assert "counters/search/requests" in out

    def test_fail_on_spec_can_loosen_the_gate(self, tmp_path, capsys):
        base = self.write_metrics(tmp_path, "base.json")
        cur = self.write_metrics(tmp_path, "cur.json", requests=150.0)
        rc = main(["metrics", "diff", base, cur,
                   "--fail-on", "counters=0.6"])
        assert rc == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        base = self.write_metrics(tmp_path, "base.json")
        rc = main(["metrics", "diff", base, str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot load current" in capsys.readouterr().err

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        base = self.write_metrics(tmp_path, "base.json")
        rc = main(["metrics", "diff", base, base,
                   "--fail-on", "timers=0"])
        assert rc == 2
        assert "unknown section" in capsys.readouterr().err

    def test_invalid_metrics_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        base = self.write_metrics(tmp_path, "base.json")
        rc = main(["metrics", "diff", str(bad), base])
        assert rc == 2
        assert "cannot load baseline" in capsys.readouterr().err


class TestRunAllMetricsFlags:
    def test_metrics_out_writes_one_file_per_experiment(
        self, tmp_path, capsys
    ):
        from repro.obs import RunMetrics, validate_metrics
        from repro.runtime.runner import RunManifest

        results = tmp_path / "results"
        rc = main(["run-all", "--scale", "tiny", "--results-dir",
                   str(results), "--only", "table2", "--metrics-out"])
        assert rc == 0
        metrics_path = results / "table2.metrics.json"
        assert metrics_path.exists()
        import json

        assert validate_metrics(json.loads(metrics_path.read_text())) == []
        manifest = RunManifest.read(results / "table2.manifest.json")
        assert manifest.metrics_file == "table2.metrics.json"
        # The standalone file matches the blob embedded in the manifest.
        standalone = RunMetrics.read(str(metrics_path))
        assert standalone.to_dict() == manifest.run_metrics

    def test_without_metrics_out_no_file_and_no_manifest_field(
        self, tmp_path, capsys
    ):
        from repro.runtime.runner import RunManifest

        results = tmp_path / "results"
        rc = main(["run-all", "--scale", "tiny", "--results-dir",
                   str(results), "--only", "table2"])
        assert rc == 0
        assert not (results / "table2.metrics.json").exists()
        manifest = RunManifest.read(results / "table2.manifest.json")
        assert manifest.metrics_file is None

    def test_profile_prints_per_experiment_profiles(self, tmp_path, capsys):
        results = tmp_path / "results"
        rc = main(["run-all", "--scale", "tiny", "--results-dir",
                   str(results), "--only", "table2", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timing spans" in out
        assert "experiment/table2" in out


class TestCalibrateCommand:
    def test_synthetic_calibration_passes(self, capsys):
        rc = main(["calibrate", "--scale", "small", "--seed", "20060418"])
        out = capsys.readouterr().out
        assert "calibration report" in out
        assert "targets within band" in out
        assert rc == 0

    def test_calibrate_saved_trace(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl.gz"
        main(["generate", "--scale", "small", "--seed", "20060418", "-o", str(out)])
        capsys.readouterr()
        rc = main(["calibrate", "--trace", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out


class TestTraceCommands:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        out = tmp_path / "t.jsonl.gz"
        main(["generate", "--scale", "tiny", "--seed", "5", "-o", str(out)])
        return out

    def test_convert_to_store_and_back(self, tmp_path, trace_file, capsys):
        store = tmp_path / "store"
        rc = main(["trace", "convert", str(trace_file), str(store)])
        assert rc == 0
        assert "Wrote store" in capsys.readouterr().out
        assert (store / "manifest.json").exists()

        back = tmp_path / "back.jsonl.gz"
        rc = main(["trace", "convert", str(store), str(back)])
        assert rc == 0
        from repro.trace.io import load_trace
        from repro.trace.store import open_store

        a = load_trace(trace_file)
        with open_store(store) as opened:
            b = opened.to_trace()
        assert dict(a.files) == dict(b.files)
        assert dict(a.clients) == dict(b.clients)
        assert all(a.snapshots_on(d) == b.snapshots_on(d) for d in a.days())
        c = load_trace(back)
        assert all(a.snapshots_on(d) == c.snapshots_on(d) for d in a.days())

    def test_info_on_store_and_file(self, tmp_path, trace_file, capsys):
        store = tmp_path / "store"
        main(["trace", "convert", str(trace_file), str(store)])
        capsys.readouterr()
        assert main(["trace", "info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "repro.tracestore/1" in out
        assert "Segments" in out
        assert main(["trace", "info", str(trace_file)]) == 0
        assert "Trace file" in capsys.readouterr().out

    def test_verify_clean_and_corrupt(self, tmp_path, trace_file, capsys):
        store = tmp_path / "store"
        main(["trace", "convert", str(trace_file), str(store)])
        assert main(["trace", "verify", str(store)]) == 0
        assert "OK" in capsys.readouterr().out
        seg = next(store.glob("day-*.seg"))
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF
        seg.write_bytes(bytes(data))
        assert main(["trace", "verify", str(store)]) == 1
        assert "sha256 mismatch" in capsys.readouterr().err

    def test_convert_missing_source_exits_two(self, tmp_path, capsys):
        rc = main(
            ["trace", "convert", str(tmp_path / "nope.jsonl"),
             str(tmp_path / "store")]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_convert_truncated_source_exits_two(self, tmp_path, trace_file, capsys):
        cut = tmp_path / "cut.jsonl.gz"
        data = trace_file.read_bytes()
        cut.write_bytes(data[: len(data) // 2])
        rc = main(["trace", "convert", str(cut), str(tmp_path / "store")])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err


class TestCrawlStoreFlag:
    def test_crawl_store_writes_verified_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        out = tmp_path / "crawl.jsonl"
        rc = main(
            ["crawl", "--clients", "30", "--days", "3", "--seed", "2",
             "--store", str(store), "-o", str(out)]
        )
        assert rc == 0
        assert "Appended 3 day segments" in capsys.readouterr().out
        assert main(["trace", "verify", str(store)]) == 0

        from repro.trace.io import load_trace
        from repro.trace.store import open_store

        a = load_trace(out)
        with open_store(store) as opened:
            b = opened.to_trace()
        assert all(a.snapshots_on(d) == b.snapshots_on(d) for d in a.days())

    def test_resume_with_different_store_exits_two(self, tmp_path, capsys):
        from repro.checkpoint import Checkpointer
        from repro.edonkey.crawler import Crawler, CrawlerConfig
        from repro.edonkey.network import NetworkConfig, build_network
        from repro.runtime import Scale, workload_config
        import dataclasses

        workload = dataclasses.replace(
            workload_config(Scale.SMALL), num_clients=30, num_files=500,
            days=3, mainstream_pool_size=30,
        )
        network = build_network(NetworkConfig(workload=workload), seed=2)
        crawler = Crawler(
            network, CrawlerConfig(days=3), seed=2,
            store_dir=tmp_path / "store",
        )
        crawler.crawl(checkpointer=Checkpointer(tmp_path / "ckpt"))
        rc = main(
            ["crawl", "--clients", "30", "--days", "3", "--seed", "2",
             "--checkpoint-dir", str(tmp_path / "ckpt"), "--resume",
             "--store", str(tmp_path / "elsewhere")]
        )
        assert rc == 2
        assert "store" in capsys.readouterr().err
