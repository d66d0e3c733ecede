"""Scaling benchmark of the sharded multi-process runtime.

Two measurements, mirroring the contract of
:mod:`repro.runtime.sharded`:

- **strong scaling** (gated): one fixed DEFAULT-scale search workload —
  sixteen list sizes over one compiled trace — run sequentially and
  through ``sharded_search`` with 2 and 4 workers.  The speedup at the
  largest worker count must reach ``MIN_SPEEDUP`` (2x) *when the machine
  can express it*: on runners with fewer visible cores than workers the
  speedup gate is reported as skipped (a process pool cannot beat the
  core count).
- **import baseline** (always gated, even under ``--no-gate``): a fresh
  interpreter importing the CLI + trace-store + runtime modules must
  stay numpy-free and under ``RSS_CEILING_MB`` — the regression check
  for those modules' lazy numpy imports.

Sharded search results are checked against the sequential run before any
timing is reported.  Results land in
``benchmarks/results/bench-scaling.json`` (machine-readable) and
``.txt`` (human-readable); CI runs a SMALL-scale 2-worker smoke with
``--no-gate``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro.core.search import SearchConfig, simulate_search
from repro.runtime.cache import SHARED_TRACE_CACHE
from repro.runtime.scale import DEFAULT_SEED, Scale

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_JSON = os.path.join(RESULTS_DIR, "bench-scaling.json")
RESULTS_TXT = os.path.join(RESULTS_DIR, "bench-scaling.txt")

#: The strong-scaling speedup floor at the largest worker count.
MIN_SPEEDUP = 2.0
WORKER_COUNTS = (1, 2, 4)

#: One task per list size; enough tasks to amortize pool startup and
#: keep all workers busy for several scheduling rounds.
LIST_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48)

#: Modules every store/CLI tool imports; they must not drag numpy in.
#: The message-plane layers (wire codec, transport seam, protocol
#: handlers) ride on the CLI path too, so they sit under the same gate
#: — and they must not pull in asyncio either (only the service package
#: may, and the CLI imports that lazily inside cmd_serve/cmd_loadgen).
BASELINE_MODULES = (
    "repro.cli",
    "repro.trace.store",
    "repro.runtime",
    "repro.edonkey.wire",
    "repro.edonkey.transport",
    "repro.edonkey.protocol",
)

#: Imported *after* the asyncio-free check: service mode legitimately
#: needs asyncio, but even with it loaded the baseline must stay
#: numpy-free and under the RSS ceiling.
SERVICE_MODULES = ("repro.service",)
RSS_CEILING_MB = 64.0


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(repeat, fn):
    """Best (minimum) wall time of ``repeat`` runs; returns (secs, result)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def check_import_baseline() -> dict:
    """Fresh-interpreter import check: numpy-free, asyncio-lazy, RSS-bounded.

    Two stages in one subprocess: after the baseline (CLI-path) modules,
    asyncio must be absent; after the service package joins them, numpy
    must still be absent and the peak RSS under the ceiling.
    """
    script = (
        "import resource, sys\n"
        + "\n".join(f"import {module}" for module in BASELINE_MODULES)
        + "\nasyncio_preloaded = int('asyncio' in sys.modules)\n"
        + "\n".join(f"import {module}" for module in SERVICE_MODULES)
        + "\nprint(int('numpy' in sys.modules), asyncio_preloaded,"
        " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.join(repo, "src")},
    )
    numpy_flag, asyncio_flag, maxrss_kb = result.stdout.split()
    return {
        "modules": list(BASELINE_MODULES),
        "service_modules": list(SERVICE_MODULES),
        "numpy_loaded": bool(int(numpy_flag)),
        "asyncio_preloaded": bool(int(asyncio_flag)),
        "rss_mb": int(maxrss_kb) / 1024.0,
        "rss_ceiling_mb": RSS_CEILING_MB,
    }


def _search_configs(seed: int):
    return [
        SearchConfig(list_size=size, track_load=False, seed=seed)
        for size in LIST_SIZES
    ]


def run_strong(scale: Scale, seed: int, repeat: int, worker_counts) -> dict:
    """Fixed workload, growing worker pool; checks results en route."""
    from repro.runtime.sharded import sharded_search

    static = SHARED_TRACE_CACHE.static(scale, seed)
    compiled = static.compiled()  # compile outside the timed region
    configs = _search_configs(seed)

    seq_secs, seq_results = _best_of(
        repeat, lambda: [simulate_search(static, c) for c in configs]
    )
    runs = {"1": {"secs": seq_secs}}
    for workers in worker_counts:
        if workers == 1:
            continue
        secs, results = _best_of(
            repeat, lambda w=workers: sharded_search(compiled, configs, workers=w)
        )
        for sequential, sharded in zip(seq_results, results):
            if sequential.rates != sharded.rates:
                raise AssertionError(
                    f"sharded search diverged at {workers} workers"
                )
        runs[str(workers)] = {"secs": secs, "speedup": seq_secs / secs}
    return {
        "clients": len(static.caches),
        "configs": len(configs),
        "runs": runs,
    }


def run_bench(scale: Scale = Scale.DEFAULT, seed: int = DEFAULT_SEED,
              repeat: int = 2, worker_counts=WORKER_COUNTS) -> dict:
    cores = _cores()
    max_workers = max(worker_counts)
    enforced = cores >= max_workers
    return {
        "benchmark": "bench-scaling",
        "scale": scale.name,
        "seed": seed,
        "repeat": repeat,
        "workers": list(worker_counts),
        "cores": cores,
        "min_speedup": MIN_SPEEDUP,
        "speedup_gate": {
            "workers": max_workers,
            "enforced": enforced,
            "reason": None if enforced else (
                f"only {cores} core(s) visible; a process pool cannot "
                f"exceed the core count, so the {max_workers}-worker "
                "speedup floor is reported but not enforced"
            ),
        },
        "baseline": check_import_baseline(),
        "strong": run_strong(scale, seed, repeat, worker_counts),
    }


def gate_failures(doc: dict) -> list:
    """Deterministic checks always; the speedup floor when expressible."""
    failures = []
    if doc["baseline"]["numpy_loaded"]:
        failures.append("lazy_imports")
    if doc["baseline"].get("asyncio_preloaded"):
        failures.append("eager_asyncio")
    if doc["baseline"]["rss_mb"] > doc["baseline"]["rss_ceiling_mb"]:
        failures.append("baseline_rss")
    gate = doc["speedup_gate"]
    if gate["enforced"]:
        top = doc["strong"]["runs"].get(str(gate["workers"]))
        if top is not None and top["speedup"] < doc["min_speedup"]:
            failures.append("strong_scaling")
    return failures


def render(doc: dict) -> str:
    gate = doc["speedup_gate"]
    baseline = doc["baseline"]
    lines = [
        f"bench-scaling  scale={doc['scale']} seed={doc['seed']} "
        f"cores={doc['cores']} repeat={doc['repeat']}",
        f"import baseline: numpy_loaded={baseline['numpy_loaded']} "
        f"rss={baseline['rss_mb']:.1f}MB (ceiling {baseline['rss_ceiling_mb']:.0f}MB)",
        "",
        f"strong scaling  ({doc['strong']['configs']} search configs, "
        f"{doc['strong']['clients']} clients, fixed)",
        f"{'workers':<10}{'secs':>10}{'speedup':>10}  gate",
    ]
    for workers, run in doc["strong"]["runs"].items():
        speedup = run.get("speedup")
        is_gated = gate["enforced"] and int(workers) == gate["workers"]
        lines.append(
            f"{workers:<10}{run['secs']:>9.2f}s"
            + (f"{speedup:>9.2f}x" if speedup is not None else f"{'-':>10}")
            + ("  >=%.0fx" % doc["min_speedup"] if is_gated else "  -")
        )
    if not gate["enforced"]:
        lines.append(f"(speedup gate skipped: {gate['reason']})")
    return "\n".join(lines)


def write_results(doc: dict, json_path: str = RESULTS_JSON,
                  txt_path: str = RESULTS_TXT) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(json_path)), exist_ok=True)
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(txt_path, "w") as fh:
        fh.write(render(doc) + "\n")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="default",
        choices=["tiny", "small", "default", "large"],
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument(
        "--workers", type=int, nargs="+", default=list(WORKER_COUNTS),
        help="worker counts to sweep (1 is always the baseline)",
    )
    parser.add_argument("--out", default=RESULTS_JSON)
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="skip the speedup floor (CI smoke); the lazy-import and "
        "RSS checks are deterministic and stay enforced",
    )
    args = parser.parse_args(argv)

    doc = run_bench(
        scale=Scale[args.scale.upper()],
        seed=args.seed,
        repeat=args.repeat,
        worker_counts=tuple(sorted(set(args.workers) | {1})),
    )
    txt_path = os.path.splitext(args.out)[0] + ".txt"
    write_results(doc, args.out, txt_path)
    print(render(doc))
    print(f"\nWrote {args.out}")

    failures = gate_failures(doc)
    if args.no_gate:
        failures = [f for f in failures if f != "strong_scaling"]
    if failures:
        print("FAIL: " + ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
