"""Gate the overhead of the live-telemetry plane (flight recorder).

Runs the standard crawl + search workload twice — once bare, once with
an enabled :class:`~repro.obs.FlightRecorder` snapshotting to a JSONL
file at a short interval — and gates on the wall-clock ratio.  The
flight recorder runs on its own daemon thread and only *reads* observer
state, so its cost should be bounded by its wakeups plus the fsync'd
appends; ``MAX_RATIO`` is the budget.

Both runs are timed with the median of ``REPEATS`` repetitions to damp
scheduler noise; the committed baseline
(``benchmarks/results/bench-telemetry.json``) records the
``off_secs`` / ``on_secs`` / ``overhead_ratio`` / ``max_ratio`` fields.

Runs two ways:

- under pytest with the rest of the benchmark suite
  (``pytest benchmarks/bench_telemetry.py``);
- as a script for CI::

      PYTHONPATH=src python benchmarks/bench_telemetry.py --out out.json
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import pytest

# Run as a script, only ``benchmarks/`` itself is on ``sys.path``; the
# ``benchmarks`` package lives in the repository root.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.bench_profile import profile_workload  # noqa: E402
from repro.obs import (  # noqa: E402
    Observer,
    TelemetrySpec,
    read_telemetry,
    record_telemetry,
)

#: An infrastructure bench, not a paper result: the ``paper-results``
#: CI job deselects it with ``-m "not infra"``.
pytestmark = pytest.mark.infra

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "bench-telemetry.json"
)

# Telemetry workload: smaller than bench-profile's baseline so the
# doubled (off + on) repetitions stay quick in CI.
CLIENTS = 40
DAYS = 2
REPEATS = 3

#: Telemetry may cost at most this much wall-clock relative to a bare
#: run.  Generous because the denominator is only a few seconds, where
#: one scheduler hiccup is a visible fraction.
MAX_RATIO = 1.25

#: Snapshot aggressively (the gate should cover a worse-than-default
#: interval; production default is 1s).
INTERVAL_S = 0.05


def _run_once(telemetry_path=None) -> float:
    start = time.perf_counter()
    if telemetry_path is None:
        profile_workload(clients=CLIENTS, days=DAYS)
    else:
        spec = TelemetrySpec(telemetry_path, interval_s=INTERVAL_S)
        with record_telemetry(spec, Observer(), source="bench"):
            profile_workload(clients=CLIENTS, days=DAYS)
    return time.perf_counter() - start


def measure(repeats: int = REPEATS) -> dict:
    """Median off/on timings plus the overhead ratio and gate."""
    off = []
    on = []
    snapshots = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(repeats):
            off.append(_run_once())
            path = os.path.join(tmp, f"telemetry-{index}.jsonl")
            on.append(_run_once(telemetry_path=path))
            records, _truncated = read_telemetry(path)
            snapshots = max(
                snapshots,
                sum(1 for r in records if r.get("kind") == "snapshot"),
            )
    off_secs = statistics.median(off)
    on_secs = statistics.median(on)
    return {
        "benchmark": "bench-telemetry",
        "clients": CLIENTS,
        "days": DAYS,
        "repeats": repeats,
        "interval_s": INTERVAL_S,
        "off_secs": round(off_secs, 4),
        "on_secs": round(on_secs, 4),
        "overhead_ratio": round(on_secs / off_secs, 4),
        "max_ratio": MAX_RATIO,
        "snapshots": snapshots,
    }


def test_telemetry_overhead():
    result = measure(repeats=1)
    # At a 50ms interval even the shortest run must snapshot repeatedly.
    assert result["snapshots"] >= 2, result
    assert result["overhead_ratio"] <= MAX_RATIO, result


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=RESULTS_PATH)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="record the measurement without failing on the ratio gate",
    )
    args = parser.parse_args(argv)
    result = measure(repeats=args.repeats)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary = (
        f"off {result['off_secs']:.3f}s  on {result['on_secs']:.3f}s  "
        f"overhead {result['overhead_ratio']:.3f}x "
        f"(gate {MAX_RATIO}x, {result['snapshots']} snapshots)"
    )
    txt_path = os.path.splitext(args.out)[0] + ".txt"
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(
            "bench-telemetry: flight-recorder overhead on the "
            f"bench-profile workload (clients={CLIENTS}, days={DAYS}, "
            f"interval={INTERVAL_S}s, median of "
            f"{result['repeats']} repeats)\n{summary}\n"
        )
    print(summary)
    print(f"Wrote {args.out}")
    if not args.no_gate and result["overhead_ratio"] > MAX_RATIO:
        print("FAIL: telemetry overhead above gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
