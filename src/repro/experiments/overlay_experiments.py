"""Extension experiment: the epidemic semantic overlay vs reactive LRU.

Compares the two ways of obtaining semantic neighbours on the same
workload and at the same list size:

- **reactive** (the paper, Section 5): LRU lists learned from uploads
  during the trace-driven request simulation;
- **proactive** (Voulgaris & van Steen, the system the paper's related
  work points to): Cyclon + Vicinity gossip converging to each peer's
  k-nearest semantic neighbours before any search happens.

Also reports convergence speed (rounds to reach 95% of the final hit
rate) — the practical cost of the proactive approach.
"""

from __future__ import annotations

from typing import Dict

from repro.core.search import SearchConfig, simulate_search
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, experiment
from repro.overlay.cyclon import CyclonConfig
from repro.overlay.simulator import OverlayConfig, SemanticOverlaySimulator
from repro.overlay.vicinity import VicinityConfig


@experiment(
    "overlay-vs-reactive",
    artefact="Section 5 (extension)",
    description="Converged gossip views vs reactive LRU on one workload",
)
def run_overlay_vs_reactive(
    ctx: RunContext,
    view_size: int = 10,
    rounds: int = 15,
) -> ExperimentResult:
    """Plug converged gossip views into the *trace-driven* simulator.

    Three runs over the identical request stream:

    - ``lru cold``   — the paper's reactive baseline;
    - ``fixed``      — frozen overlay views (pure proactive);
    - ``lru warm``   — LRU lists warm-started from the overlay views and
      then learning as usual (the hybrid a real client would deploy).
    """
    seed = ctx.seed
    trace = ctx.static_trace()
    simulator = SemanticOverlaySimulator(
        trace,
        OverlayConfig(
            rounds=rounds,
            cyclon=CyclonConfig(view_size=max(20, 2 * view_size)),
            vicinity=VicinityConfig(view_size=view_size),
            seed=seed,
        ),
    )
    simulator.run(measure_every=rounds)
    views = {
        peer: simulator.vicinity.view_of(peer) for peer in simulator.sharers
    }

    def hit(strategy: str, initial) -> float:
        return simulate_search(
            trace,
            SearchConfig(
                list_size=view_size,
                strategy=strategy,
                track_load=False,
                initial_lists=initial,
                seed=seed,
            ),
        ).hit_rate

    cold = hit("lru", None)
    fixed = hit("fixed", views)
    warm = hit("lru", views)

    metrics: Dict[str, float] = {
        "lru_cold": cold,
        "fixed_overlay": fixed,
        "lru_warm": warm,
    }
    return ExperimentResult(
        experiment_id="overlay-vs-reactive",
        title=f"Proactive, reactive and hybrid lists (k={view_size})",
        metrics=metrics,
        notes="finding: frozen converged views beat both LRU variants on "
        "a static workload — reactive updates *degrade* an already-"
        "optimal view by replacing k-NN neighbours with whoever uploaded "
        "last (including random fall-back sources); warm-starting still "
        "beats the cold start",
    )


@experiment(
    "overlay",
    artefact="Related work (Voulgaris & van Steen)",
    description="Epidemic semantic overlay: convergence and final hit rate",
)
def run_gossip_overlay(
    ctx: RunContext,
    view_size: int = 10,
    rounds: int = 25,
) -> ExperimentResult:
    """Build the epidemic overlay and compare against reactive LRU."""
    seed = ctx.seed
    trace = ctx.static_trace()

    simulator = SemanticOverlaySimulator(
        trace,
        OverlayConfig(
            rounds=rounds,
            cyclon=CyclonConfig(view_size=max(20, 2 * view_size)),
            vicinity=VicinityConfig(view_size=view_size),
            seed=seed,
        ),
    )
    overlay = simulator.run(measure_every=max(1, rounds // 10))

    lru = simulate_search(
        trace,
        SearchConfig(list_size=view_size, strategy="lru", track_load=False, seed=seed),
    )

    # Rounds until the overlay reaches 95% of its final hit rate.
    target = 0.95 * overlay.hit_rate_by_round.ys[-1]
    rounds_to_converge = next(
        (
            x
            for x, y in zip(
                overlay.hit_rate_by_round.xs, overlay.hit_rate_by_round.ys
            )
            if y >= target
        ),
        float(rounds),
    )

    metrics: Dict[str, float] = {
        "overlay_hit_rate": overlay.final_hit_rate,
        "overlay_initial_hit_rate": overlay.hit_rate_by_round.ys[0] / 100.0,
        "overlay_knn_quality": overlay.final_quality,
        "lru_hit_rate": lru.hit_rate,
        "rounds_to_converge": float(rounds_to_converge),
        "connected": float(overlay.connected),
    }
    return ExperimentResult(
        experiment_id="gossip-overlay",
        title=f"Epidemic semantic overlay vs reactive LRU (k={view_size})",
        series=[overlay.hit_rate_by_round, overlay.quality_by_round],
        metrics=metrics,
        notes="proactive gossip converges to the k-NN semantic graph in a "
        "few rounds and matches or beats upload-driven LRU lists of the "
        "same size (both answer queries without any server)",
    )
