"""Real SIGKILLs against the real CLI, plus the CLI's resume guard rails
(flag validation and mismatch detection)."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.checkpoint import Checkpointer
from repro.edonkey.crawler import CRAWL_CHECKPOINT_KIND, Crawler
from repro.obs import RunMetrics
from repro.obs.telemetry import validate_telemetry
from tests.checkpoint.test_store import set_header_code


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


class TestChaosCampaign:
    def test_sigkilled_crawl_resumes_byte_identical(self, tmp_path):
        """SIGKILL a checkpointing CLI crawl after day 0, resume it and
        SIGKILL it again after day 2, then resume it to the end: it must
        end as an uninterrupted checkpointing run does."""

        def crawl(name, *extra):
            run_dir = tmp_path / name
            run_dir.mkdir(exist_ok=True)
            return _cli(
                "crawl", "--seed", "11", "--clients", "40", "--days", "4",
                "--checkpoint-dir", str(run_dir / "ckpt"),
                "--output", str(run_dir / "trace.jsonl"),
                "--metrics-out", str(run_dir / "metrics.json"),
                *extra,
            )

        reference = crawl("reference")
        assert reference.returncode == 0, reference.stderr
        assert crawl("victim", "--kill-after-day", "0").returncode != 0
        killed_again = crawl("victim", "--resume", "--kill-after-day", "2")
        assert killed_again.returncode != 0
        final = crawl("victim", "--resume")
        assert final.returncode == 0, final.stderr

        ref_dir, victim_dir = tmp_path / "reference", tmp_path / "victim"
        assert (victim_dir / "trace.jsonl").read_bytes() == (
            ref_dir / "trace.jsonl"
        ).read_bytes()
        ref_metrics = RunMetrics.read(str(ref_dir / "metrics.json"))
        victim_metrics = RunMetrics.read(str(victim_dir / "metrics.json"))
        # Span timings are wall-clock; everything else must be equal.
        for section in ("counters", "gauges", "histograms"):
            assert getattr(victim_metrics, section) == getattr(
                ref_metrics, section
            ), section
        invariants = [
            Crawler.resume_from(Checkpointer(d / "ckpt"))[0].network.check_invariants()
            for d in (ref_dir, victim_dir)
        ]
        assert invariants[1] == invariants[0]

    def test_sigkilled_lossy_crawl_resumes_byte_identical(self, tmp_path):
        """Under message loss a timed-out connect can leave a session its
        client never learnt of, so a checkpoint's network does not pass
        a clean invariant check.  Resume compares it with the report the
        checkpointing run recorded, and the crawl finishes as an
        uninterrupted one does."""
        crawl = ("crawl", "--seed", "11", "--clients", "150", "--days", "4",
                 "--loss-rate", "0.1", "--slow-rate", "0.1")
        reference = _cli(*crawl, "--output", str(tmp_path / "reference.jsonl"))
        assert reference.returncode == 0, reference.stderr
        victim = (*crawl, "--checkpoint-dir", str(tmp_path / "ckpt"),
                  "--output", str(tmp_path / "victim.jsonl"))
        assert _cli(*victim, "--kill-after-day", "1").returncode != 0
        restored, _ = Crawler.resume_from(Checkpointer(tmp_path / "ckpt"))
        assert restored.saved_invariants  # ghost sessions were recorded
        resumed = _cli(*victim, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "victim.jsonl").read_bytes() == (
            tmp_path / "reference.jsonl"
        ).read_bytes()


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

    def test_resume_names_the_checkpoint_it_restored(self, tmp_path):
        """A corrupt newest payload makes resume fall back to the older
        file; the resume line names that file, not the corrupt one."""
        ckpt = tmp_path / "ckpt"
        base = ["crawl", "--clients", "20", "--days", "3", "--seed", "3",
                "--checkpoint-dir", str(ckpt)]
        assert _cli(*base, "--kill-after-day", "1").returncode != 0
        newest = ckpt / "crawl-00000002.ckpt"
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        resumed = _cli(*base, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert (
            "Resuming crawl at day 1/3 from crawl-00000001.ckpt"
            in resumed.stderr
        )

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

    def test_resume_refuses_a_checkpoint_other_code_wrote(self, tmp_path):
        # Only the newest checkpoint is patched: the older, intact one
        # must not be resumed from instead, since its objects were laid
        # out by the same other code.
        ckpt = tmp_path / "ckpt"
        base = ["crawl", "--clients", "20", "--days", "2", "--seed", "5",
                "--checkpoint-dir", str(ckpt)]
        assert _cli(*base).returncode == 0
        set_header_code(Checkpointer(ckpt).list()[-1], "0" * 64)
        resumed = _cli(*base, "--resume")
        assert resumed.returncode == 2
        assert "0" * 64 in resumed.stderr
        assert repro.code_identity() in resumed.stderr

    def test_resume_reports_invariant_drift(self, tmp_path):
        """Resume exits 3 and prints both sides of the difference when
        the restored network's invariant report is not the recorded one."""
        ckpt = tmp_path / "ckpt"
        base = ["crawl", "--clients", "20", "--days", "2", "--seed", "5",
                "--checkpoint-dir", str(ckpt)]
        assert _cli(*base, "--kill-after-day", "0").returncode != 0
        checkpointer = Checkpointer(ckpt)
        payload, info = checkpointer.load_latest(CRAWL_CHECKPOINT_KIND)
        crawler = payload["crawler"]
        server = crawler.network.servers[0]
        lost = sorted(server._sessions)[0]
        del crawler.network.clients[lost]
        crawler.saved_invariants = ["a report only the saving run saw"]
        checkpointer.save(
            info.kind, info.step, payload, seed=info.seed, meta=info.meta
        )
        resumed = _cli(*base, "--resume")
        assert resumed.returncode == 3
        assert (
            f"  + server 0 has a session for unknown client {lost}"
            in resumed.stderr
        )
        assert "  - a report only the saving run saw" in resumed.stderr
        assert "Traceback" not in resumed.stderr

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
