"""The observability baseline: profile a standard crawl + search workload.

This benchmark establishes the perf trajectory every future PR aims at:
it runs the protocol-level crawler and the trace-driven semantic search
under an enabled :class:`~repro.obs.Observer` and writes the resulting
``repro.metrics/2`` JSON to ``benchmarks/results/bench-profile.json``.
Comparing that file across commits shows where crawl/search time goes
(span totals) and whether a change moved work between phases (counters).

The committed baseline is also the reference for CI's
``metrics-regression`` job, which re-runs this workload at the *same*
default parameters and gates on ``repro metrics diff`` — counters must
match exactly, timings within a generous relative tolerance.  Keep the
script defaults, ``test_profile_baseline``, and the CI job in lockstep:
all three use clients=60, days=3, the paper seed.

Runs two ways:

- under pytest-benchmark with the rest of the suite
  (``pytest benchmarks/bench_profile.py``);
- as a script for CI smoke runs and ad-hoc profiling::

      PYTHONPATH=src python benchmarks/bench_profile.py \
          --out metrics.json --trace-out trace.json

Timings are machine-specific; the committed baseline is a *shape*
reference (which spans dominate, what the counters are at this workload),
not a number to equal.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.analysis.semantic import pair_overlaps
from repro.core.search import SearchConfig, simulate_search
from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.network import NetworkConfig, build_network
from repro.runtime.cache import SHARED_TRACE_CACHE
from repro.runtime.scale import DEFAULT_SEED, Scale, workload_config
from repro.obs import Observer, RunMetrics, validate_metrics

#: An infrastructure bench, not a paper result: the ``paper-results``
#: CI job deselects it with ``-m "not infra"``.
pytestmark = pytest.mark.infra

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "bench-profile.json"
)

LIST_SIZES = (5, 10, 20)

# The canonical baseline workload.  CI's metrics-regression job diffs a
# fresh run at these exact parameters against the committed baseline
# with exact counter matching, so changing them requires regenerating
# ``benchmarks/results/bench-profile.json`` in the same commit.
BASELINE_CLIENTS = 60
BASELINE_DAYS = 3


def profile_workload(
    clients: int = BASELINE_CLIENTS,
    days: int = BASELINE_DAYS,
    seed: int = DEFAULT_SEED,
    list_sizes=LIST_SIZES,
    tracer=None,
) -> RunMetrics:
    """Run the standard crawl + search workload under one observer."""
    obs = Observer(tracer=tracer)
    workload = dataclasses.replace(
        workload_config(Scale.SMALL),
        num_clients=clients,
        num_files=max(clients * 15, 500),
        days=days,
        mainstream_pool_size=min(clients, max(clients * 15, 500)),
    )
    network = build_network(
        NetworkConfig(workload=workload), seed=seed, obs=obs
    )
    crawler = Crawler(network, CrawlerConfig(days=days), seed=seed)
    trace = crawler.crawl()
    obs.gauge("workload/snapshots", trace.num_snapshots)

    static = SHARED_TRACE_CACHE.static(Scale.SMALL, seed)

    # Compiled-path stage: compile the static trace and run the pairwise
    # overlap kernel on it, so the regression gate also covers the
    # compiled trace layer (counts are deterministic => exact-match).
    with obs.span("compile"):
        compiled = static.compiled()
    obs.gauge("compiled/files", compiled.num_files)
    obs.gauge("compiled/replicas", compiled.total_replicas)
    with obs.span("analyze/pair_overlaps"):
        overlaps = pair_overlaps(compiled)
    obs.count("analysis/overlapping_pairs", len(overlaps))

    for list_size in list_sizes:
        with obs.span(f"search@{list_size}"):
            simulate_search(
                static,
                SearchConfig(
                    list_size=list_size,
                    strategy="lru",
                    track_load=False,
                    seed=seed,
                ),
                obs=obs,
            )
    return obs.report(
        run={
            "benchmark": "bench-profile",
            "clients": clients,
            "days": days,
            "seed": seed,
        }
    )


def write_baseline(metrics: RunMetrics, path: str = RESULTS_PATH) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    metrics.write(path)


def test_profile_baseline(benchmark):
    from benchmarks.conftest import run_once

    metrics = run_once(benchmark, profile_workload)
    problems = validate_metrics(metrics.to_dict())
    assert problems == [], problems
    # All three instrumented layers must appear in the span tree.
    paths = set(metrics.spans)
    assert any(p.startswith("crawl") for p in paths)
    assert any("advance_day" in p for p in paths)
    assert any("search/" in p or p.startswith("search@") for p in paths)
    # The profile must carry the crawl-phase breakdown a perf PR aims at.
    assert "crawl/day/sweep_nicknames" in paths
    assert "crawl/day/browse" in paths
    assert metrics.counters["search/requests"] > 0
    write_baseline(metrics)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=BASELINE_CLIENTS)
    parser.add_argument("--days", type=int, default=BASELINE_DAYS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--out", default=RESULTS_PATH, help="metrics JSON output path"
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="also write a Chrome trace_event JSON of the workload",
    )
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        from repro.obs import TraceRecorder

        tracer = TraceRecorder()
    metrics = profile_workload(
        clients=args.clients, days=args.days, seed=args.seed, tracer=tracer
    )
    problems = validate_metrics(metrics.to_dict())
    if problems:
        raise SystemExit("invalid metrics: " + "; ".join(problems))
    write_baseline(metrics, args.out)
    from repro.obs import render_profile

    print(render_profile(metrics))
    print(f"\nWrote {args.out}")
    if tracer is not None:
        tracer.write_chrome(args.trace_out)
        print(f"Wrote Chrome trace ({len(tracer)} events) to {args.trace_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
