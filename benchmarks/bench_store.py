"""Benchmark of the out-of-core trace store against whole-file loading.

The store exists so long traces never have to be resident: the day-indexed
analyses walk a ``TraceStore`` one mmapped day segment at a time instead
of materialising every snapshot as Python objects (``load_trace``).  This
bench runs the same analysis code — ``rank_evolution`` plus the
rng-subsampled ``overlap_evolution`` — over both sources, each inside its
own child process, and compares:

- **peak RSS** (``ru_maxrss``), the number the store is designed to
  shrink: a full streaming pass over the 56-day DEFAULT-scale trace must
  use at least ``MIN_RSS_RATIO`` (4x) less memory than loading the whole
  JSONL trace, or the bench exits non-zero;
- **load latency**, reported informationally: time-to-first-data for the
  store (open + mmap the first segment) vs a full ``load_trace``;
- **output digests**, enforced unconditionally: both children must
  produce byte-identical analysis results (the in-memory ≡ store
  contract).

Each mode runs in a separate child process (this script re-invokes
itself with ``--child``) so the two peak-RSS measurements cannot
contaminate each other.  Results land in
``benchmarks/results/bench-store.json`` (machine-readable) and ``.txt``
(human-readable).

CI runs a SMALL-scale smoke with ``--no-gate`` (tiny traces fit in the
interpreter baseline, so the ratio is meaningless there, but the smoke
proves both paths still agree); the committed DEFAULT-scale results are
regenerated with ``python benchmarks/bench_store.py`` whenever the store
or the day-indexed analyses change.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_JSON = os.path.join(RESULTS_DIR, "bench-store.json")
RESULTS_TXT = os.path.join(RESULTS_DIR, "bench-store.txt")

#: Floor on (whole-trace peak RSS) / (streaming peak RSS).
MIN_RSS_RATIO = 4.0

#: Analysis workload shared by both children (see ``_digest_series``).
TOP_K = 5
OVERLAP_LEVELS = [1, 2, 5, 10]
MAX_PAIRS = 200
OVERLAP_SEED = 1


def _digest_series(series) -> str:
    """Canonical digest of a list of Series: any divergence between the
    in-memory and store-backed runs shows up as a digest mismatch."""
    payload = json.dumps(
        [[s.name, list(s.xs), list(s.ys)] for s in series]
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark.

    On Linux the high-water mark is inherited across ``fork``, so a child
    spawned from a parent that already held the whole trace would report
    the *parent's* peak.  Writing ``5`` to ``/proc/self/clear_refs``
    makes ``VmHWM`` track only allocations from this point on.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:  # pragma: no cover - non-Linux or restricted /proc
        pass


def _peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_inmem(trace_path: str) -> dict:
    """Whole-file mode: load every snapshot, then analyse in memory."""
    from repro.analysis.popularity import rank_evolution
    from repro.analysis.semantic import overlap_evolution
    from repro.trace.io import load_trace

    start = time.perf_counter()
    trace = load_trace(trace_path)
    load_secs = time.perf_counter() - start

    start = time.perf_counter()
    first = trace.days()[0]
    series = rank_evolution(trace, reference_day=first, top_k=TOP_K)
    series += overlap_evolution(
        trace,
        overlap_levels=OVERLAP_LEVELS,
        max_pairs_per_level=MAX_PAIRS,
        seed=OVERLAP_SEED,
    )
    analysis_secs = time.perf_counter() - start
    return {
        "load_secs": load_secs,
        "analysis_secs": analysis_secs,
        "peak_rss_kb": _peak_rss_kb(),
        "digest": _digest_series(series),
    }


def child_streaming(store_path: str) -> dict:
    """Out-of-core mode: stream mmapped day segments from the store."""
    from repro.analysis.popularity import rank_evolution
    from repro.analysis.semantic import overlap_evolution
    from repro.trace.store import open_store

    start = time.perf_counter()
    store = open_store(store_path)
    first = store.days()[0]
    store.segment(first)  # time-to-first-data: manifest + one mmap
    load_secs = time.perf_counter() - start

    start = time.perf_counter()
    series = rank_evolution(store, reference_day=first, top_k=TOP_K)
    series += overlap_evolution(
        store,
        overlap_levels=OVERLAP_LEVELS,
        max_pairs_per_level=MAX_PAIRS,
        seed=OVERLAP_SEED,
    )
    analysis_secs = time.perf_counter() - start
    return {
        "load_secs": load_secs,
        "analysis_secs": analysis_secs,
        "peak_rss_kb": _peak_rss_kb(),
        "digest": _digest_series(series),
    }


def _run_child(mode: str, data_path: str) -> dict:
    """Run one measurement in a fresh interpreter so peak RSS is clean."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(src, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", mode, data_path],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def run_bench(scale=None, seed: int | None = None, workdir: str = ".") -> dict:
    """Generate the workload, convert it, measure both modes."""
    from repro.runtime import DEFAULT_SEED, Scale, workload_config
    from repro.trace.io import convert_trace_file_to_store, save_trace
    from repro.workload.generator import SyntheticWorkloadGenerator

    scale = scale if scale is not None else Scale.DEFAULT
    seed = seed if seed is not None else DEFAULT_SEED
    config = workload_config(scale)
    trace = SyntheticWorkloadGenerator(config=config, seed=seed).generate()

    trace_path = os.path.join(workdir, "bench-store.jsonl.gz")
    store_path = os.path.join(workdir, "bench-store.store")
    save_trace(trace, trace_path)
    snapshots = trace.num_snapshots
    del trace

    start = time.perf_counter()
    convert_trace_file_to_store(trace_path, store_path).close()
    convert_secs = time.perf_counter() - start

    inmem = _run_child("inmem", trace_path)
    streaming = _run_child("streaming", store_path)
    if inmem["digest"] != streaming["digest"]:
        raise AssertionError(
            "store-backed analysis diverged from the in-memory run: "
            f"{streaming['digest']} != {inmem['digest']}"
        )

    return {
        "benchmark": "bench-store",
        "scale": scale.name,
        "seed": seed,
        "clients": config.num_clients,
        "files": config.num_files,
        "days": config.days,
        "snapshots": snapshots,
        "trace_bytes": os.path.getsize(trace_path),
        "store_bytes": sum(
            os.path.getsize(os.path.join(store_path, name))
            for name in os.listdir(store_path)
        ),
        "convert_secs": convert_secs,
        "min_rss_ratio": MIN_RSS_RATIO,
        "modes": {"inmem": inmem, "streaming": streaming},
        "rss_ratio": inmem["peak_rss_kb"] / streaming["peak_rss_kb"],
    }


def gate_failures(doc: dict) -> list:
    """Non-empty iff peak RSS did not shrink by the required factor."""
    if doc["rss_ratio"] < doc["min_rss_ratio"]:
        return [
            f"rss_ratio {doc['rss_ratio']:.2f}x < {doc['min_rss_ratio']:.0f}x"
        ]
    return []


def render(doc: dict) -> str:
    modes = doc["modes"]
    lines = [
        f"bench-store  scale={doc['scale']} seed={doc['seed']} "
        f"clients={doc['clients']} files={doc['files']} days={doc['days']} "
        f"snapshots={doc['snapshots']}",
        f"trace file: {doc['trace_bytes'] / 1e6:.1f} MB   "
        f"store: {doc['store_bytes'] / 1e6:.1f} MB   "
        f"convert: {doc['convert_secs']:.2f} s",
        "",
        f"{'mode':<12}{'load':>10}{'analysis':>10}{'peak RSS':>12}",
    ]
    for name in ("inmem", "streaming"):
        m = modes[name]
        lines.append(
            f"{name:<12}{m['load_secs']:>9.2f}s{m['analysis_secs']:>9.2f}s"
            f"{m['peak_rss_kb'] / 1024:>10.1f}MB"
        )
    lines += [
        "",
        f"digest: {modes['inmem']['digest']} (both modes)",
        f"peak-RSS ratio: {doc['rss_ratio']:.2f}x "
        f"(gate >={doc['min_rss_ratio']:.0f}x)",
    ]
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
        "--scale", default="default", choices=["tiny", "small", "default"]
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=RESULTS_JSON)
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="report the RSS ratio without enforcing the floor (CI smoke)",
    )
    parser.add_argument(
        "--child",
        choices=["inmem", "streaming"],
        help=argparse.SUPPRESS,  # internal: run one measurement and exit
    )
    parser.add_argument("data", nargs="?", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        _reset_peak_rss()  # measure this child, not the inherited peak
        fn = child_inmem if args.child == "inmem" else child_streaming
        print(json.dumps(fn(args.data)))
        return 0

    from repro.runtime import Scale

    with tempfile.TemporaryDirectory(prefix="bench-store-") as workdir:
        doc = run_bench(
            scale=Scale[args.scale.upper()], seed=args.seed, workdir=workdir
        )
    txt_path = os.path.splitext(args.out)[0] + ".txt"
    write_results(doc, args.out, txt_path)
    print(render(doc))
    print(f"\nWrote {args.out}")

    failures = gate_failures(doc)
    if failures and not args.no_gate:
        print("FAIL: " + ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
