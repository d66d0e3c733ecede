"""The repository benchmark: ``crawl``, ``search`` and ``serve``.

Usage (from anywhere; paths resolve from this file)::

    python3 perfbench/run.py --workload crawl --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no instrumentation.  ``--trace 1`` is the separate traced run: it wraps
each layer's public calls, reports the per-layer metrics, each layer's
self time and the tracing overhead (traced / untraced on the workload's
headline figure), and writes a Chrome trace to ``perfbench/out/``.

Every run checks the program's outputs (recorded digests for the seeds
in ``perfbench/digests/``, structural checks for any other seed) and
exits 1 when a check fails.  The last stdout line is the JSON result;
the lines above it print every figure by name with its unit, plus the
environment the figures were measured in.  See ``perfbench/README.md``
for the workload definitions and the layer -> metric mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

WORKLOADS = ("crawl", "search", "serve")


class Output:
    """Artefacts of one run, written under ``perfbench/out/``."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.stem = f"{workload}-seed{seed}-trace{trace}"

    def write_chrome(self, recorder) -> None:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        path = os.path.join(common.OUT_DIR, f"chrome-{self.stem}.json")
        recorder.write_chrome(path)
        print(f"chrome trace: {path} ({len(recorder)} events)")

    def write_record(self, record: dict) -> None:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        path = os.path.join(common.OUT_DIR, f"result-{self.stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")


def _spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _metrics_for(spec: dict, trace: int, measured: dict) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` lists for this mode.

    In a traced run a layer the workload never calls reports 0: that is
    the bypass the workload definitions predict (see README)."""
    if not trace:
        names = [m["name"] for m in spec["end_to_end"]]
        missing = [n for n in names if n not in measured]
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        return {n: measured[n] for n in names}
    unknown = set(measured) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {}
    for entry in spec["per_layer"]:
        value = measured.get(entry["name"])
        if value is None:
            result[entry["name"]] = common.metric(0.0, entry["unit"])
        else:
            result[entry["name"]] = common.metric(value[0], value[1])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's output digests as the reference for its seed",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        common.require_source()
        spec = _spec()
    except (common.SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workload_crawl
    import workload_search
    import workload_serve

    module = {
        "crawl": workload_crawl,
        "search": workload_search,
        "serve": workload_serve,
    }[args.workload]
    out = Output(args.workload, args.seed, args.trace)
    attempted, failed, measured, details = module.run(
        args.seed, args.seconds, bool(args.trace), args.record, out
    )
    metrics = _metrics_for(spec, args.trace, measured)

    env = common.environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    for name, (value, unit) in details.items():
        print(f"  {name} = {value} {unit}".rstrip())
    bypassed = 0
    for name, entry in metrics.items():
        if args.trace and name not in measured:
            bypassed += 1
            continue
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if bypassed:
        print(f"  ({bypassed} per-layer metrics of layers this workload "
              "never calls are reported as 0)")
    print(f"  attempted = {attempted}, failed = {failed}")
    out.write_record(
        {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "details": {k: v[0] for k, v in details.items()},
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
        }
    )
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
