"""Deterministic fault injection for the simulated eDonkey network.

The paper's crawl survived 56 days of a hostile real network: dropped
connections, dead peers, servers that silently ignore requests, and
partial answers.  This package lets the simulated substrate reproduce
those conditions — every message hop consults a :class:`FaultInjector`
that can drop the message, time a reply out past its deadline, garble a
reply into an empty one, mark peers transiently unreachable, or crash
whole servers on a schedule.

All randomness comes from seeded :class:`~repro.util.rng.RngStream`
children, so a fault run is exactly as reproducible as a clean one: the
same seed and the same :class:`FaultConfig` give the same faults, the
same :class:`FaultStats` and the same trace.  With every knob at zero
the injector is disabled and the network behaves byte-identically to a
fault-free build.
"""

from repro.faults.config import FaultConfig
from repro.faults.injector import (
    FATE_DROP,
    FATE_MALFORMED,
    FATE_OK,
    FATE_TIMEOUT,
    FaultInjector,
)
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.faults.stats import FaultStats

__all__ = [
    "FATE_DROP",
    "FATE_MALFORMED",
    "FATE_OK",
    "FATE_TIMEOUT",
    "FaultConfig",
    "FaultInjector",
    "FaultSchedule",
    "FaultStats",
    "FaultWindow",
    "RetryPolicy",
]
