"""Baseline experiments: the flooding-cost estimate from Section 3 and a
comparison of search mechanisms."""

from __future__ import annotations

from repro.analysis.popularity import max_spread_fraction
from repro.baselines.flooding import expected_contacts, measure_flooding
from repro.baselines.random_walk import measure_random_walk
from repro.core.search import SearchConfig, simulate_search
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, experiment
from repro.util.tables import format_table


@experiment(
    "flooding",
    artefact="Section 3",
    description="Flooding/random-walk cost vs the analytic 1/spread estimate",
)
def run_flooding_estimate(ctx: RunContext) -> ExperimentResult:
    """Section 3's flooding estimate: with the most popular file spread on a
    fraction p of peers, ~1/p random contacts are needed; measured flooding
    over a random overlay should agree in order of magnitude."""
    seed = ctx.seed
    temporal = ctx.filtered_trace()
    spread = max_spread_fraction(temporal)
    analytic = expected_contacts(spread) if spread > 0 else float("inf")

    static = ctx.static_trace()
    flood = measure_flooding(static, num_queries=300, seed=seed)
    walk = measure_random_walk(static, num_queries=300, seed=seed)

    table = format_table(
        ("mechanism", "hit rate", "mean contacts"),
        [
            ("analytic 1/spread (most popular file)", "-", f"{analytic:.0f}"),
            ("flooding (until hit)", f"{100 * flood['hit_rate']:.0f}%", f"{flood['mean_contacts']:.0f}"),
            ("random walk (4x64)", f"{100 * walk['hit_rate']:.0f}%", f"{walk['mean_contacts']:.0f}"),
        ],
        title="Flooding / random-walk cost",
    )
    return ExperimentResult(
        experiment_id="flooding-estimate",
        title="Cost of unstructured search (Section 3 estimate)",
        table_text=table,
        metrics={
            "max_spread": spread,
            "analytic_contacts": analytic,
            "flooding_mean_contacts": flood["mean_contacts"],
            "flooding_hit_rate": flood["hit_rate"],
            "walk_hit_rate": walk["hit_rate"],
        },
        notes="paper: max spread < 0.7% => ~143 peers contacted on average",
    )


@experiment(
    "mechanisms",
    artefact="Section 5 (extension)",
    description="Semantic neighbours vs flooding, random walk and a server",
)
def run_mechanism_comparison(
    ctx: RunContext,
    list_size: int = 20,
) -> ExperimentResult:
    """Head-to-head: semantic neighbours vs flooding vs random walk vs
    central server, on the same static workload."""
    seed = ctx.seed
    static = ctx.static_trace()

    semantic = simulate_search(
        static,
        SearchConfig(list_size=list_size, strategy="lru", track_load=False, seed=seed),
    )
    flood = measure_flooding(static, num_queries=300, seed=seed)
    walk = measure_random_walk(static, num_queries=300, seed=seed)
    # Central server: every request for a shared file hits, cost 1 message.
    server_hit_rate = 1.0

    rows = [
        (
            f"semantic LRU-{list_size}",
            f"{100 * semantic.hit_rate:.0f}%",
            f"{list_size}",
        ),
        ("flooding", f"{100 * flood['hit_rate']:.0f}%", f"{flood['mean_contacts']:.0f}"),
        ("random walk", f"{100 * walk['hit_rate']:.0f}%", f"{walk['mean_contacts']:.0f}"),
        ("central server", f"{100 * server_hit_rate:.0f}%", "1"),
    ]
    table = format_table(
        ("mechanism", "hit rate", "max contacts per query"),
        rows,
        title="Search mechanism comparison",
    )
    return ExperimentResult(
        experiment_id="mechanism-comparison",
        title="Semantic neighbours vs unstructured and central baselines",
        table_text=table,
        metrics={
            "semantic_hit_rate": semantic.hit_rate,
            "flooding_mean_contacts": flood["mean_contacts"],
            # A central index holds one (file, source) entry per replica.
            "server_index_entries": float(static.total_replicas()),
        },
        notes="semantic search answers a large share of queries with "
        f"{list_size} messages and no server state",
    )
