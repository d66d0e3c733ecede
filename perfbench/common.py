"""Helpers shared by the three workloads: paths, clocks, stats, digests.

Every path is resolved from this file's location, never from the
working directory, so the benchmark runs the same from anywhere.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGEST_DIR = os.path.join(BENCH_DIR, "digests")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Times ``setup_s`` is repeated inside one run; the median is reported.
SETUP_REPEATS = 3

#: Seed of the population every workload runs on (the DEFAULT trace and
#: network).  It is fixed because trace sizes differ by +-20% between
#: seeds (27.9k-40.8k replicas over seeds 0-9), which would swamp any
#: code change; ``--seed`` drives the draws made on that population.
DATASET_SEED = 0


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs (e.g. no ``src``)."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def median_of(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted ``values``."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_run_s(pid: int) -> float:
    """Seconds ``pid`` has run on a CPU, to the nanosecond, from
    ``/proc/<pid>/schedstat`` (exact once the process is idle)."""
    with open(f"/proc/{pid}/schedstat", "r", encoding="ascii") as handle:
        return int(handle.read().split()[0]) / 1e9


def proc_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(payload: object) -> str:
    """Stable hex digest of a JSON-serialisable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def short_digest(text: str) -> str:
    """16-bit digest of one reply; the phase digest backs it up exactly."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:4]


class DigestBook:
    """Recorded output digests of one workload, keyed by seed.

    A seed with no entry is checked structurally by the workload instead;
    ``--record`` stores the digests a run produced for its seed.
    """

    def __init__(self, workload: str) -> None:
        self.path = os.path.join(DIGEST_DIR, f"{workload}.json")
        self.entries: Dict[str, object] = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                self.entries = json.load(handle)

    def expected(self, seed: int, key: str) -> Optional[object]:
        return self.entries.get(str(seed), {}).get(key)

    def record(self, seed: int, key: str, value: object) -> None:
        self.entries.setdefault(str(seed), {})[key] = value
        os.makedirs(DIGEST_DIR, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.entries, handle, sort_keys=True, indent=1)
            handle.write("\n")
        os.replace(tmp, self.path)


def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Digest of every file under ``src/repro``: identifies the code
    measured even where the checkout is not a git repository."""
    sha = hashlib.sha1()
    package = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            sha.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()


def environment(seed: int) -> Dict[str, object]:
    """What any perf figure must be stated with (see ROADMAP)."""
    return {
        "visible_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "seed": seed,
    }


#: Seconds :func:`calibrate` takes on the reference box's core when no
#: neighbour slows it; reference-speed times are scaled to it.
CAL_REF_S = 0.0016


def calibrate() -> float:
    """Seconds of one fixed pure-Python loop (dict fill, sort, lookups):
    a ~2 ms probe of how fast this core runs right now.

    The reference box is two cores of a shared host, and a core runs up
    to two-thirds slower for spells of 0.1 s to minutes, with this
    process on it the whole time.  Such a spell slows this loop and the
    program alike, so a time divided by the loop's time next to it is
    the same in and out of the spells.  Collection is off while the loop
    runs, so the program's heap cannot add to its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i * 2654435761) % 1000003] = str(i)
        total = 0
        for key in sorted(table):
            total += key ^ len(table[key])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, *calibrations: float) -> float:
    """``seconds`` rescaled to the reference core speed, given the
    :func:`calibrate` times taken around them."""
    return seconds * CAL_REF_S * len(calibrations) / sum(calibrations)


def timed_setup(build):
    """Run ``build()`` between two calibrations; returns (its result,
    wall seconds, reference-speed seconds)."""
    before = calibrate()
    with Stopwatch() as sw:
        result = build()
    after = calibrate()
    return result, sw.elapsed, at_reference_speed(sw.elapsed, before, after)


class Stopwatch:
    """Wall-clock timer on ``time.perf_counter``."""

    __slots__ = ("start", "elapsed")

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self.start
        return False


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
