"""Further extension experiments on the search simulator.

- :func:`run_strategy_comparison` — all four neighbour strategies,
  overall and on the rare-file subset.  Section 5.3.2 singles out the
  popularity algorithm of [30] as the way to keep rare-file specialists
  in the lists; this experiment quantifies exactly that claim.
- :func:`run_availability_sweep` — hit rate under peer churn.  The
  availability studies the paper cites (Overnet's turnover) motivate the
  question: do semantic lists still work when a third of the neighbours
  are offline at any moment?
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.search import SearchConfig, simulate_search
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, experiment
from repro.util.cdf import Series
from repro.util.tables import format_table

STRATEGIES = ("lru", "history", "popularity", "random")


@experiment(
    "strategies",
    artefact="Section 5.3.2",
    description="All four neighbour strategies, overall and on rare requests",
)
def run_strategy_comparison(
    ctx: RunContext,
    list_size: int = 20,
    rare_max_replicas: int = 3,
) -> ExperimentResult:
    """Hit rates of every strategy, overall and on rare *requests*.

    Rare hit rates are measured inside the full mixed workload (via the
    simulator's ``rare_cutoff`` tracker), because the phenomenon of
    interest is list pollution: requests for popular files fill the list
    with peers that are useless for the next rare query.
    """
    seed = ctx.seed
    trace = ctx.static_trace()

    rows = []
    metrics: Dict[str, float] = {}
    for strategy in STRATEGIES:
        result = simulate_search(
            trace,
            SearchConfig(
                list_size=list_size,
                strategy=strategy,
                track_load=False,
                rare_cutoff=rare_max_replicas,
                seed=seed,
            ),
        )
        overall = result.hit_rate
        assert result.rare_rates is not None
        rare = result.rare_rates.hit_rate
        rows.append(
            (strategy.upper(), f"{100 * overall:.0f}%", f"{100 * rare:.0f}%")
        )
        metrics[f"{strategy}_overall"] = overall
        metrics[f"{strategy}_rare"] = rare

    table = format_table(
        ("strategy", "all files", f"rare files (<= {rare_max_replicas} replicas)"),
        rows,
        title=f"Neighbour strategies at list size {list_size}",
    )
    return ExperimentResult(
        experiment_id="strategy-comparison",
        title="LRU vs History vs Popularity vs Random, overall and rare",
        table_text=table,
        metrics=metrics,
        notes="[30]'s popularity weighting keeps rare-file specialists in "
        "the list: its rare-file hit rate should lead the pack while the "
        "random benchmark collapses on rare files",
    )


@experiment(
    "sensitivity",
    artefact="Figure 21 (extension)",
    description="Robustness sweep over the interest-loyalty parameter",
)
def run_loyalty_sensitivity(
    ctx: RunContext,
    loyalties: Sequence[float] = (0.5, 0.7, 0.9),
    list_size: int = 10,
) -> ExperimentResult:
    """Robustness sweep over ``interest_loyalty``, the one parameter the
    whole reproduction hinges on.

    For each loyalty level: LRU hit rate, the randomized-trace floor, and
    their difference (the semantic share of Figure 21).  The paper's
    conclusions are robust if the semantic share grows monotonically with
    loyalty and remains substantial well below the calibrated 0.9.
    """
    import dataclasses

    from repro.core.randomization import randomize_trace
    from repro.util.rng import RngStream
    from repro.workload.generator import SyntheticWorkloadGenerator

    seed = ctx.seed
    rows = []
    metrics: Dict[str, float] = {}
    for loyalty in loyalties:
        config = dataclasses.replace(
            ctx.workload(), interest_loyalty=loyalty
        )
        generator = SyntheticWorkloadGenerator(config=config, seed=seed)
        static = generator.generate_static()
        aliases = [
            p.meta.client_id for p in generator.profiles if p.alias_of is not None
        ]
        static = static.without_clients(aliases)
        hit = simulate_search(
            static,
            SearchConfig(
                list_size=list_size, strategy="lru", track_load=False, seed=seed
            ),
        ).hit_rate
        floor = simulate_search(
            randomize_trace(static, RngStream(seed, f"loyalty[{loyalty:g}]")),
            SearchConfig(
                list_size=list_size, strategy="lru", track_load=False, seed=seed
            ),
        ).hit_rate
        share = hit - floor
        rows.append(
            (f"{loyalty:.1f}", f"{100 * hit:.0f}%", f"{100 * floor:.0f}%",
             f"{100 * share:.0f}%")
        )
        key = f"{loyalty:g}".replace(".", "_")
        metrics[f"hit_at_{key}"] = hit
        metrics[f"floor_at_{key}"] = floor
        metrics[f"share_at_{key}"] = share
    table = format_table(
        ("interest loyalty", f"LRU-{list_size} hit", "randomized floor",
         "semantic share"),
        rows,
        title="Sensitivity to the interest-loyalty parameter",
    )
    return ExperimentResult(
        experiment_id="loyalty-sensitivity",
        title="Robustness of the headline results to interest loyalty",
        table_text=table,
        metrics=metrics,
        notes="the semantic share should grow with loyalty and stay "
        "substantial well below the calibrated value — the conclusions do "
        "not balance on a parameter knife-edge",
    )


@experiment(
    "extrapolation",
    artefact="Section 4 (extension)",
    description="Sensitivity of clustering metrics to the gap-fill rule",
)
def run_extrapolation_ablation(ctx: RunContext) -> ExperimentResult:
    """Sensitivity of the clustering metrics to the extrapolation rule.

    DESIGN.md commits to the paper's pessimistic intersection fill; this
    ablation quantifies how much that choice matters by recomputing the
    clustering-correlation headline (P(another common file | 1 common))
    and mean cache sizes under all three fill rules.  Per cache the rules
    are ordered (intersection ⊆ previous ⊆ union), but at realistic churn
    (~5 adds/day on ~50-file caches over 1-2 day gaps) the aggregate
    metrics barely move — evidence that the paper's conservative choice
    does not drive its clustering results.
    """
    from repro.analysis.semantic import clustering_correlation
    from repro.trace.extrapolation import FILL_MODES, ExtrapolationConfig, extrapolate

    filtered = ctx.filtered_trace()
    rows = []
    metrics: Dict[str, float] = {}
    for fill in FILL_MODES:
        extrapolated = extrapolate(filtered, ExtrapolationConfig(fill=fill))
        days = extrapolated.days()
        day = days[len(days) // 8] if days else None
        if day is None:
            continue
        caches = {
            c: f for c, f in extrapolated.snapshots_on(day).items() if f
        }
        correlation = clustering_correlation(caches)
        p1 = correlation.ys[0] if correlation.ys else 0.0
        mean_cache = (
            sum(len(f) for f in caches.values()) / len(caches) if caches else 0.0
        )
        rows.append((fill, f"{p1:.1f}%", f"{mean_cache:.1f}"))
        metrics[f"{fill}_p1"] = p1
        metrics[f"{fill}_mean_cache"] = mean_cache
    table = format_table(
        ("fill rule", "P(another common | 1 common)", "mean cache size"),
        rows,
        title="Extrapolation-rule sensitivity (one analysis day)",
    )
    return ExperimentResult(
        experiment_id="extrapolation-ablation",
        title="Pessimistic vs optimistic gap filling",
        table_text=table,
        metrics=metrics,
        notes="the paper's intersection rule is the conservative bound: "
        "it can only under-state cache contents and thus clustering",
    )


@experiment(
    "exchange",
    artefact="Section 6",
    description="Exchange-graph structure: reciprocity, skew, communities",
)
def run_exchange_graph(
    ctx: RunContext,
    list_size: int = 20,
) -> ExperimentResult:
    """The exchange graph of a full search run (Section 6's server-log
    observations: reciprocity, generous-uploader skew, dense communities)."""
    from repro.analysis.exchange_graph import summarize_exchanges

    seed = ctx.seed
    trace = ctx.static_trace()
    result = simulate_search(
        trace,
        SearchConfig(
            list_size=list_size,
            strategy="lru",
            track_load=False,
            track_exchanges=True,
            seed=seed,
        ),
    )
    assert result.exchanges is not None
    summary = summarize_exchanges(result.exchanges)
    table = format_table(
        ("metric", "value"),
        summary.rows(),
        title="Exchange graph of the semantic-search run",
    )
    metrics: Dict[str, float] = {
        "nodes": float(summary.nodes),
        "edges": float(summary.edges),
        "reciprocity": summary.reciprocity,
        "degree_skew": summary.degree_skew,
        "clustering": summary.clustering,
        "largest_core": float(summary.largest_core),
    }
    return ExperimentResult(
        experiment_id="exchange-graph",
        title="Exchange-graph structure (reciprocity, skew, communities)",
        table_text=table,
        metrics=metrics,
        notes="paper-cited server logs: ~20% bidirectional edges, cliques "
        "of size 100+ among clients; the synthetic exchange graph shows "
        "the same reciprocity band and dense semantic communities",
    )


@experiment(
    "availability",
    artefact="Section 5 (extension)",
    description="LRU hit rate as peer availability degrades",
)
def run_availability_sweep(
    ctx: RunContext,
    list_size: int = 20,
    availabilities: Sequence[float] = (1.0, 0.9, 0.7, 0.5, 0.3),
) -> ExperimentResult:
    """LRU hit rate as peer availability degrades."""
    seed = ctx.seed
    trace = ctx.static_trace()
    series = Series(name=f"LRU-{list_size} hit rate vs availability (%)")
    metrics: Dict[str, float] = {}
    unresolvable_fraction: Dict[float, float] = {}
    for availability in availabilities:
        result = simulate_search(
            trace,
            SearchConfig(
                list_size=list_size,
                strategy="lru",
                track_load=False,
                availability=availability,
                seed=seed,
            ),
        )
        series.append(availability, 100.0 * result.hit_rate)
        metrics[f"hit@{availability:g}"] = result.hit_rate
        total_events = result.rates.requests + result.unresolvable
        unresolvable_fraction[availability] = (
            result.unresolvable / total_events if total_events else 0.0
        )
    metrics["unresolvable@0.5"] = unresolvable_fraction.get(0.5, 0.0)
    return ExperimentResult(
        experiment_id="availability-sweep",
        title="Semantic search under peer churn",
        series=[series],
        metrics=metrics,
        notes="hit rate degrades roughly linearly with availability (an "
        "offline neighbour is just a missed chance), and only requests "
        "whose every source is offline become unresolvable",
    )
