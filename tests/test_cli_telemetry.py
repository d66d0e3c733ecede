"""CLI surfaces of the telemetry plane: flags, tail, report, bench-summary."""

import gzip
import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import benchsummary
from repro.obs.telemetry import read_telemetry, validate_telemetry


class TestTelemetryFlag:
    def test_crawl_writes_valid_telemetry(self, tmp_path, capsys):
        telemetry = tmp_path / "run.jsonl"
        rc = main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
                   "--telemetry-out", str(telemetry)])
        assert rc == 0
        assert "Wrote telemetry" in capsys.readouterr().out
        assert validate_telemetry(str(telemetry)) == []
        records, truncated = read_telemetry(str(telemetry))
        assert not truncated
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert records[-1]["outcome"] == "completed"
        # Progress gauges surfaced into the snapshots.
        assert records[-1]["progress"].get("days_done") == 2.0

    def test_telemetry_leaves_trace_output_identical(self, tmp_path, capsys):
        plain_out = tmp_path / "plain.jsonl.gz"
        telem_out = tmp_path / "telemetered.jsonl.gz"
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "-o", str(plain_out)])
        capsys.readouterr()
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "--telemetry-out", str(tmp_path / "t.jsonl"),
              "-o", str(telem_out)])
        capsys.readouterr()
        assert gzip.decompress(telem_out.read_bytes()) == gzip.decompress(
            plain_out.read_bytes()
        )

    def test_search_accepts_telemetry(self, tmp_path, capsys):
        telemetry = tmp_path / "s.jsonl"
        rc = main(["search", "--scale", "small", "--seed", "3",
                   "--list-sizes", "5", "--telemetry-out", str(telemetry)])
        assert rc == 0
        assert validate_telemetry(str(telemetry)) == []

    def test_experiment_accepts_telemetry(self, tmp_path, capsys):
        telemetry = tmp_path / "e.jsonl"
        rc = main(["experiment", "fig5", "--scale", "small",
                   "--telemetry-out", str(telemetry)])
        assert rc == 0
        records, _ = read_telemetry(str(telemetry))
        assert records[0]["run"].get("id") == "fig5"


def _fail(*args, **kwargs):
    raise RuntimeError("simulated work failed")


#: Entry point -> (CLI argv or None for ``Runner.run``, the work that is
#: made to raise, the telemetry sources that must each end ``failed``).
FAILING_RUNS = {
    "search-workers-1": (
        ["search", "--scale", "tiny", "--list-sizes", "5", "10",
         "--workers", "1"],
        "repro.core.search.SearchSimulator.run",
        {"main"},
    ),
    # Forked workers inherit the patched class.
    "search-workers-2": (
        ["search", "--scale", "tiny", "--list-sizes", "5", "10",
         "--workers", "2"],
        "repro.core.search.SearchSimulator.run",
        {"main", "shard 0", "shard 1"},
    ),
    "crawl": (
        ["crawl", "--clients", "40", "--days", "2"],
        "repro.edonkey.crawler.Crawler.crawl",
        {"main"},
    ),
    "experiment": (
        ["experiment", "fig5", "--scale", "tiny"],
        "repro.runtime.registry.ExperimentSpec.run",
        {"main"},
    ),
    "Runner.run": (
        None,
        "repro.runtime.registry.ExperimentSpec.run",
        {"fig5"},
    ),
}


@pytest.mark.parametrize("entry", FAILING_RUNS)
def test_failed_run_ends_every_source_failed(entry, tmp_path, monkeypatch):
    """The exception propagates, and every recorder the run opened says
    ``failed`` in its end record."""
    argv, work, sources = FAILING_RUNS[entry]
    telemetry = str(tmp_path / "t.jsonl")
    monkeypatch.setattr(work, _fail)
    with pytest.raises(RuntimeError, match="simulated work failed"):
        if argv is None:
            from repro.obs.telemetry import TelemetrySpec
            from repro.runtime import RunContext, Runner, Scale

            Runner(
                ctx=RunContext(scale=Scale.TINY),
                results_dir=tmp_path / "results",
                telemetry=TelemetrySpec(telemetry),
            ).run("fig5")
        else:
            main(argv + ["--telemetry-out", telemetry])
    assert validate_telemetry(telemetry) == []
    records, _truncated = read_telemetry(telemetry)
    last = {record["source"]: record for record in records}
    assert set(last) == sources
    for source, record in last.items():
        assert record["kind"] == "end", source
        assert record["outcome"] == "failed", source


class TestOutParentValidation:
    @pytest.mark.parametrize("flag", [
        "--metrics-out", "--trace-out", "--telemetry-out",
    ])
    def test_missing_parent_fails_fast(self, tmp_path, capsys, flag):
        target = tmp_path / "nope" / "out.json"
        rc = main(["crawl", "--clients", "40", "--days", "2",
                   flag, str(target)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "parent directory" in err
        assert flag.lstrip("-") in err.replace("-", "_") or flag in err

    def test_checked_before_any_command_runs(self, tmp_path, capsys):
        rc = main(["experiment", "--list",
                   "--metrics-out", str(tmp_path / "nope" / "m.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "parent directory of --metrics-out" in captured.err
        assert "Registered experiments" not in captured.out

    def test_existing_parent_passes(self, tmp_path, capsys):
        rc = main(["crawl", "--clients", "40", "--days", "2",
                   "--telemetry-out", str(tmp_path / "ok.jsonl")])
        assert rc == 0


class TestTail:
    def _write_telemetry(self, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "--telemetry-out", str(telemetry)])
        return telemetry

    def test_tail_renders_sources(self, tmp_path, capsys):
        telemetry = self._write_telemetry(tmp_path)
        capsys.readouterr()
        rc = main(["tail", str(telemetry)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "main" in out
        assert "source" in out and "state" in out

    def test_tail_missing_file_is_rc2(self, tmp_path, capsys):
        rc = main(["tail", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_tail_notes_torn_tail(self, tmp_path, capsys):
        telemetry = self._write_telemetry(tmp_path)
        capsys.readouterr()
        with open(telemetry, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        rc = main(["tail", str(telemetry)])
        assert rc == 0
        assert "torn" in capsys.readouterr().out.lower()


class TestReport:
    def test_report_requires_an_input(self, tmp_path, capsys):
        rc = main(["report", "-o", str(tmp_path / "r.html")])
        assert rc == 2
        assert "at least one" in capsys.readouterr().err

    def test_report_from_all_three_inputs(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        telemetry = tmp_path / "t.jsonl"
        trace = tmp_path / "tr.json"
        main(["crawl", "--clients", "40", "--days", "2", "--seed", "1",
              "--metrics-out", str(metrics), "--trace-out", str(trace),
              "--telemetry-out", str(telemetry)])
        capsys.readouterr()
        report = tmp_path / "report.html"
        rc = main(["report", "--metrics", str(metrics),
                   "--telemetry", str(telemetry), "--trace", str(trace),
                   "-o", str(report), "--title", "crawl smoke"])
        assert rc == 0
        assert "Wrote report" in capsys.readouterr().out
        html = report.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "crawl smoke" in html
        assert "Resident set size" in html
        assert "Trace timeline" in html
        for needle in ("http://", "https://", "<script"):
            assert needle not in html

    def test_report_bad_input_is_rc2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["report", "--metrics", str(bad),
                   "-o", str(tmp_path / "r.html")])
        assert rc == 2


class TestBenchSummary:
    def test_lists_only_the_committed_trajectory(self, capsys):
        """One row per workload and end-to-end metric of each committed
        ``BENCH_PR*.json``; the gate baselines under benchmarks/results
        are not a trajectory and get no rows."""
        paths = sorted(
            Path(benchsummary.checkout_dir()).glob("BENCH_PR*.json"),
            key=lambda path: (len(path.name), path.name),
        )
        expected = [
            path.name
            for path in paths
            for runs in json.loads(path.read_text())["workloads"].values()
            for _metric in runs["metrics"]
        ]
        assert expected
        assert main(["bench-summary"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split()[0] for row in rows if row.strip()] == expected

    def test_no_trajectory_is_rc2(self, tmp_path, monkeypatch, capsys):
        # Outside a checkout the working directory is read: this one has
        # a gate baseline but no trajectory file.
        results = tmp_path / "benchmarks" / "results"
        results.mkdir(parents=True)
        (results / "bench-profile.json").write_text("{}")
        installed = tmp_path / "site" / "lib" / "repro" / "obs" / "benchsummary.py"
        monkeypatch.setattr(benchsummary, "__file__", str(installed))
        monkeypatch.chdir(tmp_path)
        assert main(["bench-summary"]) == 2
        assert "no BENCH_PR*.json" in capsys.readouterr().err
