"""Extension experiment: semantic links in a live eDonkey client.

Runs the paper's announced follow-up — semantic neighbour lists inside the
protocol-level client — on a simulated network, and measures the design
payoff: the fraction of lookups that never reach the index server, per
day, as the lists warm up.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.edonkey.network import NetworkConfig, build_network
from repro.edonkey.semantic_client import (
    LiveSemanticConfig,
    LiveSemanticSimulation,
)
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, Scale, experiment


@experiment(
    "live",
    artefact="Section 7 (announced follow-up)",
    description="Semantic neighbour lists inside the protocol-level client",
    default_scale=Scale.SMALL,
)
def run_live_semantic(
    ctx: RunContext,
    days: int = 10,
    strategy: str = "lru",
    list_size: int = 10,
    num_clients: int = 200,
) -> ExperimentResult:
    """Live semantic-client run on a protocol-level network.

    ``ctx.scale`` only sets the workload *shape* parameters; the network size
    is controlled by ``num_clients`` because every peer here is a full
    protocol client (much heavier than the statistical simulation).
    """
    seed = ctx.seed
    base = ctx.workload()
    workload = dataclasses.replace(
        base,
        num_clients=num_clients,
        num_files=max(num_clients * 16, 1000),
        days=max(days + 2, 8),
        mainstream_pool_size=min(num_clients, max(num_clients * 16, 1000)),
    )
    network = build_network(
        NetworkConfig(
            workload=workload,
            semantic_clients=True,
            semantic_strategy=strategy,
            semantic_list_size=list_size,
        ),
        seed=seed,
        obs=ctx.obs,
    )
    simulation = LiveSemanticSimulation(
        network,
        LiveSemanticConfig(
            days=days,
            requests_per_client_per_day=3,
            seed=seed,
        ),
    )
    result = simulation.run()

    warmup = result.avoidance_by_day.ys[0] if result.avoidance_by_day.ys else 0.0
    peak = max(result.avoidance_by_day.ys) if result.avoidance_by_day.ys else 0.0
    metrics: Dict[str, float] = {
        "lookups": float(result.total_lookups),
        "overall_server_avoidance": result.overall_avoidance,
        "first_day_avoidance": warmup / 100.0,
        "peak_day_avoidance": peak / 100.0,
        "download_success_rate": result.download_success_rate,
    }
    return ExperimentResult(
        experiment_id="live-semantic-client",
        title=f"Semantic links in the live client ({strategy.upper()}-{list_size})",
        series=[result.avoidance_by_day],
        metrics=metrics,
        notes="every avoided lookup is one the index server never saw — "
        "the 'server-less' payoff of the paper's title, measured on the "
        "protocol substrate",
    )
