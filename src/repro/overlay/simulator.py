"""Two-tier overlay co-simulation and search evaluation.

Runs Cyclon + Vicinity over the sharers of a static trace, tracks
convergence round by round, and evaluates the resulting semantic views as
search neighbour lists — the proactive counterpart of Section 5's
reactive LRU lists, enabling a head-to-head comparison between "learn
your neighbours from your uploads" and "gossip your way to them".

Search evaluation mirrors Section 5.1: each peer queries its semantic
view for every file in its cache; the query hits if some view member
(other than itself) shares the file.  Because views are built from the
same static caches the queries come from, this measures exactly what
[31] measures: how well the converged semantic overlay covers each
peer's interests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.overlay.cyclon import Cyclon, CyclonConfig
from repro.overlay.vicinity import Vicinity, VicinityConfig
from repro.trace.model import ClientId, StaticTrace
from repro.util.cdf import Series
from repro.util.validation import check_positive


@dataclass
class OverlayConfig:
    """Co-simulation parameters."""

    rounds: int = 30
    cyclon: CyclonConfig = field(default_factory=CyclonConfig)
    vicinity: VicinityConfig = field(default_factory=VicinityConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("rounds", self.rounds)


@dataclass
class OverlayResult:
    """Outcome of an overlay run."""

    rounds: int
    hit_rate_by_round: Series
    quality_by_round: Series
    final_hit_rate: float
    final_quality: float
    connected: bool

    def summary(self) -> str:
        return (
            f"rounds={self.rounds} "
            f"hit_rate={100 * self.final_hit_rate:.1f}% "
            f"knn_quality={100 * self.final_quality:.1f}% "
            f"connected={self.connected}"
        )


class SemanticOverlaySimulator:
    """Builds and evaluates the epidemic semantic overlay.

    The proximity computations and the search evaluation run on
    interned int sets (the trace's compiled form); views, metrics and RNG
    draws are those of the string sets.
    """

    def __init__(
        self,
        trace: StaticTrace,
        config: Optional[OverlayConfig] = None,
    ) -> None:
        self.trace = trace
        self.config = config or OverlayConfig()
        self._compiled = trace.compiled()
        sharers = [c for c, cache in trace.caches.items() if cache]
        if len(sharers) < 2:
            raise ValueError("need at least 2 sharers to build an overlay")
        self.sharers: List[ClientId] = sorted(sharers)
        self.cyclon = Cyclon(
            self.sharers, config=self.config.cyclon, seed=self.config.seed
        )
        self.vicinity = Vicinity(
            {c: trace.caches[c] for c in self.sharers},
            self.cyclon,
            config=self.config.vicinity,
            seed=self.config.seed,
        )
        self._ideal: Optional[Dict[ClientId, List[ClientId]]] = None

    # ------------------------------------------------------------------

    def semantic_hit_rate(self) -> float:
        """Fraction of (peer, cached file) queries answerable by the
        peer's current semantic view."""
        row = self._compiled.client_row
        sets = self._compiled.cache_sets
        caches = {peer: sets[row[peer]] for peer in self.sharers}
        hits = 0
        total = 0
        for peer in self.sharers:
            view = self.vicinity.view_of(peer)
            view_caches = [caches[v] for v in view]
            for fid in caches[peer]:
                total += 1
                if any(fid in other for other in view_caches):
                    hits += 1
        return hits / total if total else 0.0

    def knn_quality(self) -> float:
        if self._ideal is None:
            self._ideal = self.vicinity.ideal_views()
        return self.vicinity.view_quality(self._ideal)

    # ------------------------------------------------------------------

    def run(self, measure_every: int = 1) -> OverlayResult:
        """Run the configured number of rounds, sampling metrics."""
        hit_series = Series(name="semantic view hit rate (%)")
        quality_series = Series(name="k-NN quality (%)")
        hit_series.append(0, 100.0 * self.semantic_hit_rate())
        quality_series.append(0, 100.0 * self.knn_quality())
        for round_index in range(1, self.config.rounds + 1):
            self.vicinity.round()
            if round_index % measure_every == 0 or round_index == self.config.rounds:
                hit_series.append(round_index, 100.0 * self.semantic_hit_rate())
                quality_series.append(round_index, 100.0 * self.knn_quality())
        return OverlayResult(
            rounds=self.config.rounds,
            hit_rate_by_round=hit_series,
            quality_by_round=quality_series,
            final_hit_rate=hit_series.ys[-1] / 100.0,
            final_quality=quality_series.ys[-1] / 100.0,
            connected=self.cyclon.is_connected(),
        )
