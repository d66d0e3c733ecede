"""Tools must work from any working directory.

Subprocesses that re-import the library build their ``PYTHONPATH`` from
``__file__``, never from a relative ``src``, and the CLI finds the
checkout's files the same way; these checks run them from a scratch
directory.
"""

import json
import os
from pathlib import Path

from benchmarks import bench_scaling
from repro.cli import main
from repro.obs import benchsummary

ROOT = Path(__file__).resolve().parents[1]


def test_import_baseline_check_runs_from_another_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = bench_scaling.check_import_baseline()
    assert not baseline["numpy_loaded"]
    assert not baseline["asyncio_preloaded"]


def test_bench_summary_runs_from_another_directory(tmp_path, monkeypatch, capsys):
    """``repro bench-summary`` finds the committed results and the
    ``BENCH_PR*.json`` trajectory from the package's checkout."""
    trajectory = sorted(ROOT.glob("BENCH_PR*.json"))
    assert trajectory
    monkeypatch.chdir(tmp_path)
    assert main(["bench-summary"]) == 0
    out = capsys.readouterr().out
    assert "bench-profile.json" in out
    assert all(path.name in out for path in trajectory)
    assert "crawl setup_s" in out


def _trajectory(pr: int, parent: float, change: float) -> dict:
    stats = {
        "unit": "s",
        "better": "lower",
        "parent": {"median": parent, "q1": parent, "q3": parent},
        "change": {"median": change, "q1": change, "q3": change},
        "wins": 3,
    }
    return {
        "schema": "repro.bench-trajectory/1",
        "pr": pr,
        "workloads": {
            "crawl": {"pairs": 3, "seeds": [1, 2, 3], "metrics": {"setup_s": stats}}
        },
    }


def test_bench_summary_falls_back_to_the_working_directory(
    tmp_path, monkeypatch, capsys
):
    """Outside a checkout both kinds of file are read from the cwd, and
    trajectory rows come in PR order, parent -> change with the ratio."""
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    (results / "bench-store.json").write_text(
        json.dumps({"benchmark": "bench-store", "rss_ratio": 4.4})
    )
    (tmp_path / "BENCH_PR12.json").write_text(json.dumps(_trajectory(12, 2.0, 1.0)))
    (tmp_path / "BENCH_PR3.json").write_text(json.dumps(_trajectory(3, 4.5, 2.25)))
    (tmp_path / "BENCH_PR40.json").write_text('{"schema": "repro.bench-trajectory/1"}')
    installed = tmp_path / "site-packages" / "lib" / "repro" / "obs" / "benchsummary.py"
    monkeypatch.setattr(benchsummary, "__file__", str(installed))
    monkeypatch.chdir(tmp_path)
    assert benchsummary.checkout_dir() == os.getcwd()
    out_json = tmp_path / "summary.json"
    assert main(["bench-summary", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "bench-store.json" in out
    assert out.index("BENCH_PR3.json") < out.index("BENCH_PR12.json")
    assert "parent=4.50 change=2.25 ratio=0.500 wins=3 pairs=3" in out
    rows = json.loads(out_json.read_text())["results"]
    assert [row["file"] for row in rows] == [
        "bench-store.json", "BENCH_PR3.json", "BENCH_PR12.json", "BENCH_PR40.json"
    ]
    assert rows[1]["benchmark"] == "crawl setup_s"
    assert rows[1]["headline"]["ratio"] == 0.5
    assert rows[3]["kind"] == "error"  # a malformed file is listed, not fatal
