"""Gate the live service path: serve + loadgen on one event loop.

Runs an in-process :class:`~repro.service.IndexService` and replays the
standard seeded loadgen mix (seed 0, scale tiny, 1200 requests over 8
sessions at 400 req/s) against it over real TCP sockets.  The gate:

- every request succeeds — zero errors, zero timeouts;
- achieved throughput stays above ``MIN_RPS`` (an open-loop run that
  cannot keep up with a 400 req/s offered load on an in-memory index
  has regressed badly);
- the latency histogram and p50/p99 gauges are present in the output.

The output file ``benchmarks/results/bench-serve.json`` is a real
``repro.metrics/2`` payload — the *same* shape ``repro loadgen
--metrics-out`` writes — so CI's serve-smoke job can replay the
identical mix against a subprocess `repro serve` and compare with
``repro metrics diff``: counters and histogram counts exactly (the plan
is deterministic and every request is read-only), latencies ignored.

Runs two ways:

- under pytest with the rest of the benchmark suite
  (``pytest benchmarks/bench_serve.py``);
- as a script for CI / refreshing the baseline::

      PYTHONPATH=src python benchmarks/bench_serve.py --out out.json
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.obs import Observer
from repro.service import (
    IndexService,
    LoadGenConfig,
    ServiceConfig,
    run_loadgen,
)

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "bench-serve.json"
)

# The canonical smoke mix — CI's serve-smoke job must pass exactly
# these to `repro loadgen` for the metrics diff to line up.
SEED = 0
SCALE = "tiny"
REQUESTS = 1200
RATE = 400.0
SESSIONS = 8

#: Floor on achieved throughput.  The offered load is 400 req/s; an
#: unloaded in-memory index sustains thousands, so falling under this
#: means the service path (codec, event loop, dispatch) regressed.
MIN_RPS = 100.0


def run_serve_loadgen(
    requests: int = REQUESTS, rate: float = RATE, sessions: int = SESSIONS
):
    """One in-process serve+loadgen run; ``(LoadGenResult, RunMetrics)``.

    The observer is attached to the *loadgen* side only, so the payload
    matches what ``repro loadgen --metrics-out`` produces against a
    separate serve process.
    """
    obs = Observer()

    async def body():
        service = IndexService(ServiceConfig(seed=SEED))
        port = await service.start()
        try:
            return await run_loadgen(
                LoadGenConfig(
                    port=port,
                    requests=requests,
                    rate=rate,
                    sessions=sessions,
                    seed=SEED,
                    scale=SCALE,
                ),
                obs=obs,
            )
        finally:
            service.request_stop()
            await service.serve_until_stopped()

    result = asyncio.run(body())
    metrics = obs.report(
        run={
            "command": "bench-serve",
            "seed": SEED,
            "scale": SCALE,
            "requests": requests,
            "rate": rate,
            "sessions": sessions,
        }
    )
    return result, metrics


def check_gate(result, metrics) -> list:
    """The list of gate violations (empty = pass)."""
    problems = []
    if result.errors:
        problems.append(f"{result.errors} requests returned errors")
    if result.timeouts:
        problems.append(f"{result.timeouts} requests timed out")
    if result.throughput_rps < MIN_RPS:
        problems.append(
            f"throughput {result.throughput_rps:.0f} req/s under the "
            f"{MIN_RPS:.0f} req/s floor"
        )
    if "loadgen/latency_s" not in metrics.histograms:
        problems.append("latency histogram missing from metrics")
    if metrics.gauges.get("loadgen/p99_ms", 0) <= 0:
        problems.append("p99 gauge missing from metrics")
    return problems


def test_serve_loadgen_gate():
    # Smaller than the CI mix: the gate properties, not the baseline.
    result, metrics = run_serve_loadgen(requests=300, rate=3000.0, sessions=4)
    assert check_gate(result, metrics) == [], (result, metrics.counters)
    assert result.ok == 300


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=RESULTS_PATH)
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="record the measurement without failing on the gate",
    )
    args = parser.parse_args(argv)
    result, metrics = run_serve_loadgen()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    metrics.write(args.out)
    summary = result.summary()
    txt_path = os.path.splitext(args.out)[0] + ".txt"
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(
            "bench-serve: in-process serve + seeded loadgen "
            f"(seed={SEED}, scale={SCALE}, {REQUESTS} requests over "
            f"{SESSIONS} sessions at {RATE:.0f} req/s offered)\n"
            f"{summary}\n"
        )
    print(summary)
    print(f"Wrote {args.out}")
    problems = check_gate(result, metrics)
    if problems and not args.no_gate:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
