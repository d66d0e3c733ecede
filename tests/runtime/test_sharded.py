"""Worker-count invariance of the multi-process runtime.

The contract under test is the strongest one a parallel engine can make:
for a seeded run, ``repro search --workers N`` is *unobservable* in every
artefact — stdout, metrics counters/gauges/histogram shapes — for any N,
because each worker re-seeds from the run seed (never the worker count)
and the coordinator merges in a deterministic order.  Wall-clock spans
and latency histograms are the only sanctioned differences.  The same
sharded search carries the per-worker telemetry and trace-lane
contracts, and telemetry on ≡ off.

Also covered: workers that receive the trace by pickle (``spawn``,
``forkserver``) must give the forked workers' results, neither pool may
start more workers than it has tasks, a streamed crawl must land the
same store segments as an in-memory one, an experiment run in a
``run-all`` worker must write the manifest its in-process run writes,
and the CLI must refuse worker pools it cannot run (worker counts below
1, sequential-only experiments) with exit code 2.
"""

import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime import sharded

REPO_ROOT = Path(__file__).resolve().parents[2]


def _cli(*argv, check=True):
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": "src"},
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"CLI {' '.join(argv)} failed rc={result.returncode}:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    return result


#: The sharded run the multi-process contracts are checked on.
SHARDED_SEARCH = (
    "search", "--seed", "7", "--scale", "small", "--list-sizes", "5", "10",
    "--workers", "2",
)


def _results(stdout):
    """Stdout minus the lines naming output files ("Wrote ... to PATH")."""
    return [
        line for line in stdout.splitlines() if not line.startswith("Wrote ")
    ]


def _assert_metrics_equivalent(baseline_path, candidate_path):
    """Counters, gauges and histogram shapes must match exactly; only
    wall-clock artefacts (spans, latency histograms) may differ."""
    baseline = json.loads(Path(baseline_path).read_text())
    candidate = json.loads(Path(candidate_path).read_text())
    assert candidate["counters"] == baseline["counters"]
    assert candidate["gauges"] == baseline["gauges"]
    assert set(candidate["histograms"]) == set(baseline["histograms"])
    for name, base_hist in baseline["histograms"].items():
        cand_hist = candidate["histograms"][name]
        if "latency" in name:
            # Bucketing of wall-clock samples is machine-dependent;
            # the sample *count* is not.
            assert cand_hist["count"] == base_hist["count"], name
        else:
            assert cand_hist == base_hist, name


class TestSearchInvariance:
    def test_worker_count_unobservable(self, tmp_path):
        """One seeded SMALL search, workers 1/2/4: identical stdout and
        metrics."""
        outputs = {}
        for workers in (1, 2, 4):
            metrics = tmp_path / f"metrics-{workers}.json"
            result = _cli(
                "search", "--seed", "7", "--scale", "small",
                "--list-sizes", "5", "10",
                "--workers", str(workers),
                "--metrics-out", str(metrics),
            )
            # The metrics path is the one worker-dependent line.
            outputs[workers] = "\n".join(
                line
                for line in result.stdout.splitlines()
                if str(metrics) not in line
            )
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]
        _assert_metrics_equivalent(
            tmp_path / "metrics-1.json", tmp_path / "metrics-2.json"
        )
        _assert_metrics_equivalent(
            tmp_path / "metrics-1.json", tmp_path / "metrics-4.json"
        )

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pickled_trace_matches_sequential(self, method, tmp_path):
        """Under spawn and forkserver each worker unpickles the trace
        from the pool initializer; its rates must equal the sequential
        run's.  The script runs from a file: a spawned child re-imports
        the parent's main module, which stdin cannot provide."""
        script = tmp_path / "start_method.py"
        script.write_text(
            "import multiprocessing\n"
            "from repro.core.search import SearchConfig, simulate_search\n"
            "from repro.runtime import SHARED_TRACE_CACHE, Scale\n"
            "from repro.runtime.sharded import sharded_search\n"
            "\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({method!r}, force=True)\n"
            "    static = SHARED_TRACE_CACHE.static(Scale.SMALL, 7)\n"
            "    configs = [SearchConfig(list_size=n, seed=7)\n"
            "               for n in (5, 10, 20, 40)]\n"
            "    sequential = [simulate_search(static, c).rates for c in configs]\n"
            "    sharded = [r.rates for r in sharded_search(static, configs, 2)]\n"
            "    assert sharded == sequential, (sharded, sequential)\n"
            "    print(multiprocessing.get_start_method(), len(sharded))\n"
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [method, "4"]


class TestPoolSize:
    @pytest.fixture
    def sizes(self, monkeypatch):
        """The pool sizes the fan-outs ask for; the pools stay real."""
        sizes = []
        executor = sharded.ProcessPoolExecutor

        def recording(max_workers=None, **kwargs):
            sizes.append(max_workers)
            return executor(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(sharded, "ProcessPoolExecutor", recording)
        return sizes

    def test_search_pool_capped_at_config_count(self, sizes, small_static_trace):
        from repro.core.search import SearchConfig, simulate_search

        config = SearchConfig(list_size=5, seed=7)
        [result] = sharded.sharded_search(small_static_trace, [config], workers=8)
        assert sizes == [1]
        assert result.rates == simulate_search(small_static_trace, config).rates

    def test_run_all_pool_capped_at_experiment_count(self, sizes, tmp_path):
        from repro.runtime import Scale

        [outcome] = sharded.run_experiments_parallel(
            ["fig18"], seed=7, scale=Scale.TINY,
            results_dir=str(tmp_path), workers=8,
        )
        assert sizes == [1]
        assert outcome.error is None


class TestCrawlInvariance:
    def test_streamed_store_identical(self, tmp_path):
        """A streamed crawl lands the same store segments as an
        in-memory crawl."""
        stores = {}
        for label, extra in (("seq", []), ("stream", ["--stream"])):
            store = tmp_path / f"store-{label}"
            _cli(
                "crawl", "--seed", "11", "--clients", "80", "--days", "3",
                "--store", str(store), *extra,
            )
            stores[label] = store
        comparison = filecmp.dircmp(stores["seq"], stores["stream"])
        assert not comparison.left_only and not comparison.right_only
        mismatch = [
            name
            for name in comparison.common_files
            if not filecmp.cmp(
                stores["seq"] / name, stores["stream"] / name, shallow=False
            )
        ]
        assert not mismatch, f"segments differ: {mismatch}"


class TestShardedTelemetry:
    def test_every_worker_appends_to_the_shared_file(self, tmp_path):
        """A sharded search telemeters from the coordinator *and* every
        worker, all into one JSONL, each line tagged with its source."""
        telemetry = tmp_path / "run.jsonl"
        _cli(
            *SHARDED_SEARCH,
            "--telemetry-out", str(telemetry),
            "--telemetry-interval", "0.05",
        )
        from repro.obs.telemetry import read_telemetry, validate_telemetry

        assert validate_telemetry(str(telemetry)) == []
        records, _truncated = read_telemetry(str(telemetry))
        by_source = {}
        for record in records:
            by_source.setdefault(record["source"], []).append(record)
        assert set(by_source) == {"main", "shard 0", "shard 1"}
        for source, recs in by_source.items():
            kinds = [r["kind"] for r in recs]
            assert kinds[0] == "start", source
            assert kinds[-1] == "end", source
            assert recs[-1]["outcome"] == "completed", source
        # Workers run in separate processes: distinct pids in the file.
        assert len({r["pid"] for r in records}) == 3

    def test_telemetry_leaves_artifacts_identical(self, tmp_path):
        """Telemetry on vs off: identical stdout, equal metrics."""
        plain_metrics = tmp_path / "plain-metrics.json"
        telem_metrics = tmp_path / "telem-metrics.json"
        plain = _cli(*SHARDED_SEARCH, "--metrics-out", str(plain_metrics))
        telem = _cli(
            *SHARDED_SEARCH,
            "--metrics-out", str(telem_metrics),
            "--telemetry-out", str(tmp_path / "t.jsonl"),
        )
        # Only the lines naming the output files may differ.
        assert _results(plain.stdout) == _results(telem.stdout)
        plain = json.loads(plain_metrics.read_text())
        telem = json.loads(telem_metrics.read_text())
        assert plain["counters"] == telem["counters"]
        # Telemetry adds only its own resource/* gauges; everything the
        # simulation wrote is unchanged.
        deterministic = {
            k: v for k, v in telem["gauges"].items()
            if not k.startswith("resource/")
        }
        assert deterministic == plain["gauges"]

    def test_sharded_trace_out_has_per_worker_lanes(self, tmp_path):
        """--trace-out under --workers merges worker events onto one
        timeline with per-process lanes (ph:M process_name metadata)."""
        trace_path = tmp_path / "trace.json"
        _cli(*SHARDED_SEARCH, "--trace-out", str(trace_path))
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert {"repro", "shard 0", "shard 1"} <= names
        span_pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert len(span_pids) >= 2, "no worker events on the timeline"


class TestSequentialOnlyGuards:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("command", ["search", "run-all"])
    def test_workers_below_one_rejected(self, command, workers, tmp_path):
        # Cheap arguments: a CLI that accepted the count would finish
        # fast and write nothing into the repository.
        extra = {
            "search": ["--list-sizes", "5"],
            "run-all": ["--only", "fig18", "--results-dir", str(tmp_path)],
        }[command]
        result = _cli(
            command, "--scale", "tiny", *extra, "--workers", workers,
            check=False,
        )
        assert result.returncode == 2
        assert "--workers: must be >= 1" in result.stderr

    def test_stream_requires_store(self):
        result = _cli(
            "crawl", "--clients", "40", "--days", "2", "--stream",
            check=False,
        )
        assert result.returncode == 2
        assert "--store" in result.stderr

    def test_run_all_names_sequential_only(self, tmp_path):
        result = _cli(
            "run-all", "--scale", "tiny", "--only", "chaos",
            "--workers", "2", "--results-dir", str(tmp_path),
            check=False,
        )
        assert result.returncode == 2
        assert "chaos" in result.stderr

    def test_run_all_runs_extrapolation_in_a_worker(self, tmp_path):
        # Worker count must be unobservable in what the run records.
        manifests = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            _cli(
                "run-all", "--scale", "tiny", "--only", "extrapolation",
                "--workers", workers, "--results-dir", str(out),
            )
            manifest = json.loads(
                (out / "extrapolation.manifest.json").read_text()
            )
            manifests[workers] = (
                manifest["config_hash"],
                manifest["metrics"],
                manifest["run_metrics"]["counters"],
            )
        assert manifests["2"] == manifests["1"]
