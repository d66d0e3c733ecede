"""Chaos harness: real SIGKILLs against the real CLI, plus the CLI's
resume guard rails (flag validation and mismatch detection)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.checkpoint import ChaosRunner, ChaosSpec
from repro.checkpoint.chaos import compare_metrics
from repro.obs import Observer, RunMetrics
from repro.obs.telemetry import validate_telemetry


def _cli(*args):
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


class TestChaosSpec:
    def test_needs_at_least_two_days(self):
        with pytest.raises(ValueError, match="days"):
            ChaosSpec(days=1)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ChaosSpec(loss_rate=1.5)

    def test_kill_days_never_include_the_last_day(self):
        spec = ChaosSpec(days=4, kills=10, seed=3)
        days = ChaosRunner(spec, "unused").draw_kill_days()
        assert days == [0, 1, 2]  # capped at days-1 candidates

    def test_kill_days_are_seeded(self):
        spec = ChaosSpec(days=8, kills=3, seed=3)
        a = ChaosRunner(spec, "unused").draw_kill_days()
        b = ChaosRunner(spec, "unused").draw_kill_days()
        assert a == b
        assert a == sorted(set(a))


class TestCompareMetrics:
    def test_equal_metrics_no_differences(self):
        a = RunMetrics(counters={"x": 1.0}, gauges={}, histograms={})
        b = RunMetrics(counters={"x": 1.0}, gauges={}, histograms={})
        assert compare_metrics(a, b) == []

    def test_differences_are_described(self):
        a = RunMetrics(counters={"x": 1.0}, gauges={}, histograms={})
        b = RunMetrics(counters={"x": 2.0, "y": 1.0}, gauges={}, histograms={})
        diffs = compare_metrics(a, b)
        assert any("'x'" in d for d in diffs)
        assert any("only in candidate" in d for d in diffs)

    def test_span_timings_excluded(self):
        a = RunMetrics(counters={}, gauges={}, histograms={}, spans={"s": 1})
        b = RunMetrics(counters={}, gauges={}, histograms={}, spans={"s": 2})
        assert compare_metrics(a, b) == []


class TestChaosCampaign:
    def test_sigkilled_crawl_resumes_byte_identical(self, tmp_path):
        obs = Observer()
        spec = ChaosSpec(clients=40, days=4, seed=11, kills=1)
        report = ChaosRunner(spec, tmp_path, obs=obs).run(trials=1)
        trial = report.trials[0]
        assert trial.killed_ok, "the subprocess was never actually killed"
        assert trial.trace_identical
        assert trial.metrics_equal, trial.metrics_differences
        assert trial.invariant_problems == []
        assert report.passed
        assert obs.counters["chaos/kills"] == 1
        assert report.as_lineage()["kill_days"] == [trial.kill_days]
        assert "equivalent" in report.render()


class TestCliResumeGuards:
    def test_resume_requires_checkpoint_dir(self):
        proc = _cli("crawl", "--clients", "20", "--days", "2", "--resume")
        assert proc.returncode == 2
        assert "--checkpoint-dir" in proc.stderr

    def test_kill_after_day_requires_checkpoint_dir(self):
        proc = _cli(
            "crawl", "--clients", "20", "--days", "2", "--kill-after-day", "0"
        )
        assert proc.returncode == 2
        assert "--checkpoint-dir" in proc.stderr

    def test_resume_with_no_checkpoints_fails(self, tmp_path):
        proc = _cli(
            "crawl",
            "--clients",
            "20",
            "--days",
            "2",
            "--checkpoint-dir",
            str(tmp_path / "empty"),
            "--resume",
        )
        assert proc.returncode == 2
        assert "no intact" in proc.stderr

    def test_resume_refuses_mismatched_flags(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = ["crawl", "--clients", "20", "--days", "2", "--seed", "5"]
        first = _cli(*base, "--checkpoint-dir", ckpt)
        assert first.returncode == 0
        mismatched = _cli(
            "crawl",
            "--clients",
            "20",
            "--days",
            "2",
            "--seed",
            "6",
            "--checkpoint-dir",
            ckpt,
            "--resume",
        )
        assert mismatched.returncode == 2
        assert "seed" in mismatched.stderr

    def test_resume_warns_when_initial_run_was_unobserved(self, tmp_path):
        # Observability state lives in the checkpoint: asking the
        # *resumed* leg for metrics cannot recover days the unobserved
        # first leg already crawled, so the CLI says so.
        ckpt = str(tmp_path / "ckpt")
        base = ["crawl", "--clients", "20", "--days", "2"]
        assert _cli(*base, "--checkpoint-dir", ckpt).returncode == 0
        resumed = _cli(
            *base,
            "--checkpoint-dir",
            ckpt,
            "--resume",
            "--metrics-out",
            str(tmp_path / "metrics.json"),
        )
        assert resumed.returncode == 0
        assert "was not observed" in resumed.stderr

    def test_resume_of_an_unobserved_crawl_writes_and_announces_telemetry(
        self, tmp_path
    ):
        # The resumed leg records through the restored, disabled
        # observer: the file is valid but its snapshots carry no
        # progress, so the CLI warns, and it still says it wrote it.
        ckpt = str(tmp_path / "ckpt")
        telemetry = str(tmp_path / "resumed.jsonl")
        base = ["crawl", "--clients", "40", "--days", "3", "--seed", "7",
                "--checkpoint-dir", ckpt]
        assert _cli(*base, "--kill-after-day", "1").returncode != 0
        resumed = _cli(*base, "--resume", "--telemetry-out", telemetry)
        assert resumed.returncode == 0, resumed.stderr
        assert "was not observed" in resumed.stderr
        assert "--telemetry-out" in resumed.stderr
        assert f"Wrote telemetry to {telemetry}" in resumed.stdout
        assert validate_telemetry(telemetry) == []

    def test_resume_rejects_fault_schedule_flag(self, tmp_path):
        proc = _cli(
            "crawl",
            "--checkpoint-dir",
            str(tmp_path / "ckpt"),
            "--resume",
            "--fault-schedule",
            "whatever.json",
        )
        assert proc.returncode == 2
        assert "restored from the checkpoint" in proc.stderr
