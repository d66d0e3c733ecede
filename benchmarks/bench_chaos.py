"""Extension: crash-resilience of the checkpointed crawler.

Runs a chaos campaign (SIGKILL a checkpointing CLI crawl at seeded
random days, resume it, diff the final artefacts against an
uninterrupted reference) and asserts the crash-safety contract: every
trial must end byte-identical in its trace, equal in its metrics
counters, and structurally sound in its restored network.

Also measures the overhead question a checkpoint layer must answer:
how much wall-clock does per-day checkpointing add to an otherwise
identical crawl?  The ratio is recorded in the result metrics (it is
machine-specific — a shape reference, not a number to equal).

Runs two ways, like ``bench_profile``:

- under pytest-benchmark with the rest of the suite;
- as a script that writes the committed metrics baseline
  ``benchmarks/results/bench-chaos.json`` (``repro.metrics/2``, so
  ``repro metrics diff`` can gate a fresh campaign against it — the
  campaign is seeded, so its counters and chaos gauges are exact) plus
  a rendered ``.txt`` profile::

      PYTHONPATH=src python benchmarks/bench_chaos.py
"""

import os
import time

import pytest

from repro.experiments import Scale
from repro.experiments.chaos_experiment import run_chaos

#: An infrastructure bench, not a paper result: the ``paper-results``
#: CI job deselects it with ``-m "not infra"``.
pytestmark = pytest.mark.infra


def _timed_crawl(checkpoint_dir=None):
    import dataclasses

    from repro.edonkey.crawler import Crawler, CrawlerConfig
    from repro.edonkey.network import NetworkConfig, build_network
    from repro.runtime import DEFAULT_SEED, workload_config

    clients, days = 60, 4
    workload = dataclasses.replace(
        workload_config(Scale.SMALL),
        num_clients=clients,
        num_files=max(clients * 15, 500),
        days=days,
        mainstream_pool_size=min(clients, max(clients * 15, 500)),
    )
    network = build_network(
        NetworkConfig(workload=workload), seed=DEFAULT_SEED
    )
    crawler = Crawler(network, CrawlerConfig(days=days), seed=DEFAULT_SEED)
    checkpointer = None
    if checkpoint_dir is not None:
        from repro.checkpoint import Checkpointer

        checkpointer = Checkpointer(checkpoint_dir)
    start = time.perf_counter()
    trace = crawler.crawl(checkpointer=checkpointer)
    return time.perf_counter() - start, trace


def test_chaos_resilience(benchmark, tmp_path):
    # Imported here, not at module level: the conftest only resolves
    # under pytest's rootdir insertion, and this file also runs as a
    # plain script (``python benchmarks/bench_chaos.py``).
    from benchmarks.conftest import record, run_once

    result = run_once(
        benchmark,
        run_chaos,
        scale=Scale.TINY,
        trials=2,
        kills=2,
        num_clients=40,
        days=5,
    )

    # Checkpoint overhead: the same crawl with and without per-day
    # snapshots, summarized as a ratio in the recorded metrics.
    plain_secs, plain_trace = _timed_crawl()
    ckpt_secs, ckpt_trace = _timed_crawl(checkpoint_dir=tmp_path / "ckpt")
    assert ckpt_trace.num_snapshots == plain_trace.num_snapshots
    result.metrics["checkpoint_overhead_x"] = (
        ckpt_secs / plain_secs if plain_secs > 0 else 1.0
    )
    record(result)

    # The crash-safety contract, not a statistical trend: every trial
    # must resume to byte-identical artefacts.
    assert result.metric("passed") == 1.0
    assert result.metric("equivalence_rate") == 1.0
    assert result.metric("kills") >= result.metric("trials")


RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "bench-chaos.json"
)

# The committed-baseline campaign parameters; a diff gate only means
# something if a fresh run uses the same ones.
BASELINE_TRIALS = 2
BASELINE_KILLS = 2
BASELINE_CLIENTS = 40
BASELINE_DAYS = 5


def main(argv=None) -> int:
    import argparse

    from repro.obs import Observer, render_profile, validate_metrics
    from repro.runtime import DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trials", type=int, default=BASELINE_TRIALS)
    parser.add_argument("--kills", type=int, default=BASELINE_KILLS)
    parser.add_argument("--clients", type=int, default=BASELINE_CLIENTS)
    parser.add_argument("--days", type=int, default=BASELINE_DAYS)
    parser.add_argument(
        "--out", default=RESULTS_PATH, help="metrics JSON output path"
    )
    args = parser.parse_args(argv)

    obs = Observer()
    result = run_chaos(
        scale=Scale.TINY,
        seed=args.seed,
        trials=args.trials,
        kills=args.kills,
        num_clients=args.clients,
        days=args.days,
        obs=obs,
    )
    # The campaign verdicts ride along as gauges so the metrics file is
    # self-contained: diffing it checks both the observer's counters and
    # the equivalence outcome.
    for name, value in sorted(result.metrics.items()):
        obs.gauge(f"chaos/{name}", value)
    metrics = obs.report(
        run={
            "benchmark": "bench-chaos",
            "seed": args.seed,
            "trials": args.trials,
            "kills": args.kills,
            "clients": args.clients,
            "days": args.days,
        }
    )
    problems = validate_metrics(metrics.to_dict())
    if problems:
        raise SystemExit("invalid metrics: " + "; ".join(problems))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    metrics.write(args.out)
    txt_path = os.path.splitext(args.out)[0] + ".txt"
    with open(txt_path, "w") as fh:
        fh.write(render_profile(metrics) + "\n")
    print(render_profile(metrics))
    print(f"\nWrote {args.out}")
    if result.metric("passed") != 1.0:
        print("FAIL: a chaos trial did not resume to identical artefacts")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
