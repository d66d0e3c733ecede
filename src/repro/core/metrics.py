"""Hit-rate, query-load and graceful-degradation accounting."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.stats import FaultStats
from repro.util.cdf import Series


@dataclass
class HitRateAccumulator:
    """Counts search outcomes.

    ``one_hop_hits`` are requests answered by a direct semantic neighbour;
    ``two_hop_hits`` are requests answered only at the second hop (they are
    included in ``hits``).  ``contributions`` are first appearances of a
    file (no search happens).
    """

    requests: int = 0
    hits: int = 0
    one_hop_hits: int = 0
    two_hop_hits: int = 0
    contributions: int = 0

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    @property
    def one_hop_hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.one_hop_hits / self.requests


@dataclass
class LoadTracker:
    """Messages (queries) received per client (Figure 22)."""

    #: Messages per target; the search loops count into it directly.
    messages: Counter = field(default_factory=Counter)

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def num_loaded_clients(self) -> int:
        return len(self.messages)

    @property
    def max_load(self) -> int:
        if not self.messages:
            return 0
        return max(self.messages.values())

    def mean_load(self) -> float:
        if not self.messages:
            return 0.0
        return self.total_messages / len(self.messages)

    def by_rank(self) -> List[Tuple[int, int]]:
        """``(rank, messages)`` sorted by decreasing load (rank 0 = heaviest)."""
        ordered = sorted(self.messages.values(), reverse=True)
        return list(enumerate(ordered))

    def rank_series(self, name: str = "load") -> Series:
        series = Series(name=name)
        for rank, load in self.by_rank():
            series.append(rank, load)
        return series

    def top_loads(self, k: int = 3) -> List[int]:
        return sorted(self.messages.values(), reverse=True)[:k]


@dataclass
class DegradationReport:
    """How gracefully a run degraded under injected faults.

    Combines the injector's :class:`~repro.faults.stats.FaultStats` with
    the consumer's resilience accounting (retries, backoff, browse
    outcomes) and — when a fault-free baseline is available — the trace
    completeness ratio, the headline fidelity number: what fraction of
    the clean run's snapshots the hostile run still collected.
    """

    fault_stats: FaultStats
    browse_attempts: int = 0
    browse_succeeded: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    snapshots: int = 0
    baseline_snapshots: Optional[int] = None

    @property
    def browse_success_rate(self) -> float:
        if self.browse_attempts == 0:
            return 0.0
        return self.browse_succeeded / self.browse_attempts

    @property
    def delivery_rate(self) -> float:
        return self.fault_stats.delivery_rate

    @property
    def completeness(self) -> Optional[float]:
        """Snapshots collected / fault-free snapshots (None: no baseline)."""
        if self.baseline_snapshots is None:
            return None
        if self.baseline_snapshots == 0:
            return 1.0 if self.snapshots == 0 else 0.0
        return self.snapshots / self.baseline_snapshots

    def as_dict(self) -> Dict[str, float]:
        out = self.fault_stats.as_dict()
        out.update(
            {
                "browse_attempts": float(self.browse_attempts),
                "browse_succeeded": float(self.browse_succeeded),
                "browse_success_rate": self.browse_success_rate,
                "consumer_retries": float(self.retries),
                "consumer_backoff_seconds": self.backoff_seconds,
                "snapshots": float(self.snapshots),
            }
        )
        if self.completeness is not None:
            out["trace_completeness"] = self.completeness
        return out

    def render(self) -> str:
        stats = self.fault_stats
        lines = [
            "degradation report:",
            f"  messages seen by injector: {stats.messages_total}"
            f" (dropped {stats.messages_dropped}, timed out {stats.timeouts},"
            f" malformed {stats.malformed_replies})",
            f"  delivery rate: {100 * self.delivery_rate:.1f}%",
            f"  unreachable-peer sends: {stats.peer_unreachable}, "
            f"dead-server sends: {stats.server_down_messages}",
            f"  server crashes: {stats.server_crashes}, recoveries: "
            f"{stats.server_recoveries}, clients re-homed: "
            f"{stats.clients_reassigned}",
            f"  retries: {self.retries} "
            f"(backoff {self.backoff_seconds:.1f}s simulated)",
            f"  browses: {self.browse_succeeded}/{self.browse_attempts} "
            f"succeeded ({100 * self.browse_success_rate:.1f}%)",
            f"  snapshots collected: {self.snapshots}",
        ]
        if self.completeness is not None:
            lines.append(
                f"  trace completeness vs fault-free baseline: "
                f"{100 * self.completeness:.1f}%"
            )
        return "\n".join(lines)


def build_degradation_report(
    fault_stats: FaultStats,
    crawl_stats,
    snapshots: int,
    baseline_snapshots: Optional[int] = None,
) -> DegradationReport:
    """Assemble a report from the injector's stats and a crawler's
    :class:`~repro.edonkey.crawler.CrawlStats` (duck-typed so the core
    layer does not import the protocol layer)."""
    return DegradationReport(
        fault_stats=fault_stats,
        browse_attempts=crawl_stats.browse_attempts,
        browse_succeeded=crawl_stats.browse_succeeded,
        retries=crawl_stats.browse_retries + crawl_stats.query_retries,
        backoff_seconds=crawl_stats.backoff_seconds,
        snapshots=snapshots,
        baseline_snapshots=baseline_snapshots,
    )
