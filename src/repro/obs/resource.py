"""Process resource sampling: RSS, CPU, I/O and GC readings.

Long captures (the paper's crawl ran 56 days; ``Scale.HUGE`` runs for
minutes across many processes) need the capture process itself watched:
a wedged worker shows up as a flat CPU curve, a leak as a climbing RSS
curve, long before any end-of-run metric exists.
:func:`read_resource_sample` reads ``/proc/self/{statm,stat,io}`` plus
:mod:`gc` counters into one :class:`ResourceSample`; the flight
recorder (:mod:`repro.obs.telemetry`) takes one per snapshot.

Portability: everything degrades gracefully without psutil (which this
repo does not depend on) and without ``/proc`` —
:func:`read_resource_sample` falls back to ``resource.getrusage`` for
RSS/CPU and reports zero for the I/O counters it cannot see, so the
telemetry schema stays identical on any platform.

Determinism contract: sampling never draws randomness and never feeds
back into simulation state — it only *reads* process accounting — so a
seeded run is byte-identical with sampling on or off.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "ResourceSample",
    "read_resource_sample",
]

try:  # pragma: no cover - exercised per-platform
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
    _CLK_TCK = os.sysconf("SC_CLK_TCK")
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_SIZE = 4096
    _CLK_TCK = 100


@dataclass
class ResourceSample:
    """One point-in-time reading of this process's resource accounting."""

    rss_bytes: int = 0
    vms_bytes: int = 0
    cpu_user_s: float = 0.0
    cpu_system_s: float = 0.0
    io_read_bytes: int = 0
    io_write_bytes: int = 0
    gc_collections: int = 0
    gc_collected: int = 0

    @property
    def cpu_s(self) -> float:
        return self.cpu_user_s + self.cpu_system_s

    def as_dict(self) -> Dict[str, float]:
        """Flat JSON-ready mapping (the telemetry snapshot's ``resource``)."""
        return {
            "rss_bytes": float(self.rss_bytes),
            "vms_bytes": float(self.vms_bytes),
            "cpu_user_s": self.cpu_user_s,
            "cpu_system_s": self.cpu_system_s,
            "io_read_bytes": float(self.io_read_bytes),
            "io_write_bytes": float(self.io_write_bytes),
            "gc_collections": float(self.gc_collections),
            "gc_collected": float(self.gc_collected),
        }


def _read_proc_statm() -> Optional[Tuple[int, int]]:
    """(rss_bytes, vms_bytes) from ``/proc/self/statm``, or None."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE, int(fields[0]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def _read_proc_stat() -> Optional[Tuple[float, float]]:
    """(cpu_user_s, cpu_system_s) from ``/proc/self/stat``, or None."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            text = fh.read()
        # The comm field is parenthesised and may contain spaces; fields
        # are positional only after the closing paren.
        fields = text[text.rindex(")") + 2 :].split()
        # Fields 14/15 of stat are utime/stime; after stripping pid+comm
        # +state the indices shift down by three.
        return int(fields[11]) / _CLK_TCK, int(fields[12]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return None


def _read_proc_io() -> Optional[Tuple[int, int]]:
    """(read_bytes, write_bytes) from ``/proc/self/io``, or None.

    ``/proc/self/io`` needs CONFIG_TASK_IO_ACCOUNTING and can be
    permission-restricted even for self; absence degrades to zeros.
    """
    try:
        values = {}
        with open("/proc/self/io", "r", encoding="ascii") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                values[key.strip()] = int(value)
        return values["read_bytes"], values["write_bytes"]
    except (OSError, KeyError, ValueError):
        return None


def _rusage_fallback() -> Tuple[int, float, float]:
    """(rss_bytes, cpu_user_s, cpu_system_s) without ``/proc``."""
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; both are an upper
        # bound on current RSS, which is the honest portable answer.
        scale = 1 if os.uname().sysname == "Darwin" else 1024
        return int(usage.ru_maxrss) * scale, usage.ru_utime, usage.ru_stime
    except (ImportError, AttributeError, OSError):  # pragma: no cover
        return 0, 0.0, 0.0


def read_resource_sample() -> ResourceSample:
    """One synchronous resource reading (never raises, never blocks)."""
    sample = ResourceSample()
    statm = _read_proc_statm()
    stat = _read_proc_stat()
    if statm is not None:
        sample.rss_bytes, sample.vms_bytes = statm
    if stat is not None:
        sample.cpu_user_s, sample.cpu_system_s = stat
    if statm is None or stat is None:
        rss, user, system = _rusage_fallback()
        if statm is None:
            sample.rss_bytes = rss
        if stat is None:
            sample.cpu_user_s, sample.cpu_system_s = user, system
    io = _read_proc_io()
    if io is not None:
        sample.io_read_bytes, sample.io_write_bytes = io
    stats = gc.get_stats()
    sample.gc_collections = sum(int(s.get("collections", 0)) for s in stats)
    sample.gc_collected = sum(int(s.get("collected", 0)) for s in stats)
    return sample
